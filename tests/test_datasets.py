import numpy as np
import pytest

from mhpf.datasets import (OBSTACLES, DensityGrid, WalkConfig, discretize_uniform,
                           gen_fixed_endpoints, gen_harbor_corpus, gen_junction, generate,
                           gen_obstacle_world, harbor_grid, load_density_grid,
                           save_density_grid, walk_from_density)
from mhpf.errors import InvalidInputError
from mhpf.filtration import single_linkage
from mhpf.geometry import Trajectory, distance_matrix, frechet_distance


def test_discretize_straight_segment_adds_midpoint():
    t = Trajectory("s", np.array([[0.0, 0.0], [2.0, 0.0]]))
    out = discretize_uniform(t, 3)
    assert np.allclose(out.points, [[0, 0], [1, 0], [2, 0]])


def test_discretize_idempotent_on_uniform():
    t = Trajectory("s", np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    out = discretize_uniform(t, 3)
    assert np.allclose(out.points, t.points, atol=1e-9)


def test_discretize_equal_spacing():
    rng = np.random.default_rng(41)
    pts = np.cumsum(rng.normal(size=(50, 2)), axis=0)
    out = discretize_uniform(Trajectory("r", pts), 20)
    seg = np.sqrt((np.diff(out.points, axis=0) ** 2).sum(axis=1))
    # Points sit on the original polyline at equal arc-length parameters, so
    # chord lengths are equal up to corner-crossing steps; verify positions by
    # interpolation residual instead of chord equality.
    cum = np.concatenate([[0.0], np.cumsum(np.sqrt((np.diff(pts, axis=0) ** 2).sum(1)))])
    targets = np.linspace(0, cum[-1], 20)
    for k in range(2):
        assert np.allclose(out.points[:, k], np.interp(targets, cum, pts[:, k]), atol=1e-9)
    assert seg.max() <= cum[-1] / 19 + 1e-9


def test_discretize_preserves_endpoints_exactly():
    pts = np.array([[0.3, -0.7], [1.1, 2.2], [5.5, -3.3]])
    out = discretize_uniform(Trajectory("e", pts), 17)
    assert np.array_equal(out.points[0], pts[0])
    assert np.array_equal(out.points[-1], pts[-1])


def test_discretize_arc_length_preserved_for_smooth_curve():
    ts = np.linspace(0, 2 * np.pi, 500)
    pts = np.column_stack([np.cos(ts), np.sin(ts)])
    t = Trajectory("circle", pts)
    out = discretize_uniform(t, 100)
    assert out.arc_length == pytest.approx(t.arc_length, rel=0.01)


def test_discretize_rejects_degenerate():
    with pytest.raises(InvalidInputError):
        discretize_uniform(Trajectory("p", np.array([[1.0, 1.0], [1.0, 1.0]])), 5)
    with pytest.raises(InvalidInputError):
        discretize_uniform(Trajectory("q", np.array([[1.0, 1.0], [2.0, 1.0]])), 1)


def test_junction_counts_and_zero_jitter():
    rng = np.random.default_rng(42)
    trajs = gen_junction(2, 7, jitter=0.0, rng=rng)
    assert len(trajs) == 14
    for branch in ("jct0", "jct1"):
        group = [t for t in trajs if t.id.startswith(branch)]
        for a in group:
            for b in group:
                assert frechet_distance(a, b) == 0.0


def test_generate_picks_the_corpus_and_its_default_size():
    for kind, size in (("junction", 14), ("fixed", 13), ("obstacle", 33)):
        assert len(generate(kind, None, np.random.default_rng(1))) == size
    assert len(generate("junction", 9, np.random.default_rng(1), branches=3)) == 9
    assert len(generate("junction", 1, np.random.default_rng(1))) == 2  # one per branch
    for kind, kw in (("walk", {}), ("junction", {"branches": 0})):
        with pytest.raises(InvalidInputError):
            generate(kind, 5, np.random.default_rng(1), **kw)


def test_junction_cluster_structure(junction_corpus):
    tree = single_linkage(distance_matrix(junction_corpus),
                          member_ids=[t.id for t in junction_corpus])
    assert tree.leaf_count == 14


def test_fixed_endpoints_shared_exactly():
    rng = np.random.default_rng(43)
    trajs = gen_fixed_endpoints(13, rng)
    assert len(trajs) == 13
    first = trajs[0].points[0]
    last = trajs[0].points[-1]
    for t in trajs:
        assert np.array_equal(t.points[0], first)
        assert np.array_equal(t.points[-1], last)


def test_fixed_endpoints_deterministic():
    a = gen_fixed_endpoints(13, np.random.default_rng(44))
    b = gen_fixed_endpoints(13, np.random.default_rng(44))
    for x, y in zip(a, b):
        assert x.id == y.id
        assert np.array_equal(x.points, y.points)


def test_obstacle_world_avoids_obstacles():
    rng = np.random.default_rng(45)
    trajs = gen_obstacle_world(33, rng)
    assert len(trajs) == 33
    for t in trajs:
        for (x0, y0, x1, y1) in OBSTACLES:
            inside = ((t.points[:, 0] > x0) & (t.points[:, 0] < x1)
                      & (t.points[:, 1] > y0) & (t.points[:, 1] < y1))
            assert not inside.any()


def test_obstacle_world_deterministic():
    a = gen_obstacle_world(8, np.random.default_rng(46))
    b = gen_obstacle_world(8, np.random.default_rng(46))
    for x, y in zip(a, b):
        assert np.array_equal(x.points, y.points)


def test_density_grid_validation():
    with pytest.raises(InvalidInputError):
        DensityGrid(np.zeros((3, 3)))
    with pytest.raises(InvalidInputError):
        DensityGrid(np.array([[1.0, -0.5]]))


def test_walk_rejects_zero_density_start():
    grid = DensityGrid(np.array([[0.0, 1.0], [1.0, 1.0]]))
    cfg = WalkConfig(n_trajectories=1, starts=[(0, 0)])
    with pytest.raises(InvalidInputError):
        walk_from_density(grid, cfg, np.random.default_rng(1))


def test_walk_full_persistence_goes_straight():
    grid = DensityGrid(np.ones((20, 20)))
    cfg = WalkConfig(n_trajectories=1, starts=[(10, 10)], max_steps=6,
                     direction_persistence=1.0)
    t = walk_from_density(grid, cfg, np.random.default_rng(2))[0]
    deltas = np.diff(t.points, axis=0)
    # After the first randomly chosen heading, every step repeats it.
    assert np.all(deltas[1:] == deltas[0])


def test_walk_confined_to_corridor():
    grid_arr = np.zeros((9, 30))
    grid_arr[4, :] = 1.0
    grid = DensityGrid(grid_arr)
    cfg = WalkConfig(n_trajectories=5, starts=[(1, 4)], max_steps=40,
                     direction_persistence=0.5)
    for t in walk_from_density(grid, cfg, np.random.default_rng(3)):
        rows = t.points[:, 1]
        assert np.all(rows == 4.5)


def test_walk_prefers_dense_corridor():
    # Two straight diagonal corridors fork at the start cell; one carries 9x
    # the density of the other.
    arr = np.zeros((21, 11))
    arr[10, 0] = 5.0
    for c in range(1, 11):
        arr[10 - c, c] = 9.0  # dense corridor
        arr[10 + c, c] = 1.0  # sparse corridor
    grid = DensityGrid(arr)
    cfg = WalkConfig(n_trajectories=200, starts=[(0, 10)], max_steps=9,
                     direction_persistence=0.9)
    walks = walk_from_density(grid, cfg, np.random.default_rng(4))
    dense = sum(1 for t in walks if t.points[-1][1] < 10.0)
    assert dense >= 160


def test_walk_deterministic_and_resampled():
    grid, starts = harbor_grid()
    cfg = WalkConfig(n_trajectories=3, starts=starts, max_steps=80)
    a = walk_from_density(grid, cfg, np.random.default_rng(5))
    b = walk_from_density(grid, cfg, np.random.default_rng(5))
    for x, y in zip(a, b):
        assert np.array_equal(x.points, y.points)
        assert len(discretize_uniform(x, 50)) == 50


def test_grid_ascii_round_trip(tmp_path):
    grid = DensityGrid(np.array([[0.0, 1.5], [2.0, 0.25]]))
    path = tmp_path / "g.txt"
    save_density_grid(path, grid)
    loaded = load_density_grid(path)
    assert np.array_equal(loaded.cells, grid.cells)


def test_grid_pgm_binary(tmp_path):
    path = tmp_path / "g.pgm"
    pixels = bytes([0, 128, 255, 64])
    path.write_bytes(b"P5\n2 2\n255\n" + pixels)
    grid = load_density_grid(path)
    assert grid.width == 2 and grid.height == 2
    assert grid.cells[0, 1] == pytest.approx(128 / 255)


def test_grid_pgm_ascii(tmp_path):
    path = tmp_path / "g.pgm"
    path.write_text("P2\n# comment\n3 1\n255\n0 255 51\n")
    grid = load_density_grid(path)
    assert grid.cells.shape == (1, 3)
    assert grid.cells[0, 1] == 1.0


def test_harbor_corpus_cardinality_and_determinism():
    a = gen_harbor_corpus(20, np.random.default_rng(6), n_points=60)
    b = gen_harbor_corpus(20, np.random.default_rng(6), n_points=60)
    assert len(a) == 20
    assert all(len(t) == 60 for t in a)
    for x, y in zip(a, b):
        assert np.array_equal(x.points, y.points)
