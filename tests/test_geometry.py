import hashlib
import json
import math
import pickle
import time
import tracemalloc

import numpy as np
import pytest

from helpers import brute_force_frechet, reference_frechet
from mhpf import geometry
from mhpf.errors import InvalidInputError
from mhpf.evaluation import ExperimentConfig, load_corpus
from mhpf.geometry import (Trajectory, distance_matrix, euclidean, frechet_distance,
                           load_trajectories, save_trajectories, validate_distance_matrix)


def test_euclidean_identity():
    assert euclidean((0, 0), (0, 0)) == 0.0


def test_euclidean_3_4_5():
    assert euclidean((0, 0), (3, 4)) == 5.0


def test_euclidean_matches_sum_of_squares_formula():
    rng = np.random.default_rng(3)
    a = rng.normal(size=5)
    b = rng.normal(size=5)
    expected = sum((x - y) ** 2 for x, y in zip(a, b)) ** 0.5
    assert euclidean(a, b) == pytest.approx(expected, abs=1e-12)


def test_euclidean_symmetric():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=3), rng.normal(size=3)
    assert euclidean(a, b) == euclidean(b, a)


def test_euclidean_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        euclidean((0, 0), (0, 0, 0))


def test_trajectory_rejects_nan():
    with pytest.raises(InvalidInputError):
        Trajectory("bad", np.array([[0.0, np.nan]]))


def test_trajectory_rejects_empty():
    with pytest.raises(InvalidInputError):
        Trajectory("bad", np.empty((0, 2)))


def test_frechet_identical_is_zero():
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
    assert frechet_distance(pts, pts.copy()) == 0.0


def test_frechet_single_points_reduce_to_euclidean():
    assert frechet_distance(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 5.0


def test_frechet_hand_example_sqrt2():
    t1 = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    t2 = np.array([[0.0, 1.0], [2.0, 1.0]])
    assert frechet_distance(t1, t2) == pytest.approx(np.sqrt(2.0), abs=0)


def test_frechet_empty_rejected():
    with pytest.raises(InvalidInputError):
        frechet_distance(np.empty((0, 2)), np.array([[0.0, 0.0]]))


def test_frechet_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        frechet_distance(np.array([[0.0, 0.0]]), np.array([[0.0, 0.0, 0.0]]))


def test_frechet_matches_brute_force_small():
    rng = np.random.default_rng(11)
    for _ in range(80):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        p = rng.integers(-4, 5, size=(n, 2)).astype(float)
        q = rng.integers(-4, 5, size=(m, 2)).astype(float)
        assert frechet_distance(p, q) == brute_force_frechet(p, q)


def test_frechet_symmetric():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = rng.normal(size=(int(rng.integers(1, 12)), 2))
        q = rng.normal(size=(int(rng.integers(1, 12)), 2))
        assert frechet_distance(p, q) == frechet_distance(q, p)


def test_frechet_triangle_inequality():
    rng = np.random.default_rng(13)
    for _ in range(50):
        t = [rng.normal(size=(int(rng.integers(1, 9)), 2)) for _ in range(3)]
        d01 = frechet_distance(t[0], t[1])
        d12 = frechet_distance(t[1], t[2])
        d02 = frechet_distance(t[0], t[2])
        assert d02 <= d01 + d12 + 1e-9


def test_frechet_endpoint_lower_bounds():
    rng = np.random.default_rng(14)
    for _ in range(30):
        p = rng.normal(size=(int(rng.integers(1, 10)), 2))
        q = rng.normal(size=(int(rng.integers(1, 10)), 2))
        d = frechet_distance(p, q)
        assert d >= euclidean(p[0], q[0]) - 1e-12
        assert d >= euclidean(p[-1], q[-1]) - 1e-12


def test_distance_matrix_single():
    d = distance_matrix([np.array([[0.0, 0.0], [1.0, 0.0]])])
    assert d.shape == (1, 1) and d[0, 0] == 0.0


def test_distance_matrix_identical_pair_zero():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    d = distance_matrix([pts, pts.copy()])
    assert np.all(d == 0.0)


def test_distance_matrix_matches_pairwise_calls():
    rng = np.random.default_rng(15)
    # Heterogeneous lengths exercise the stutter padding.
    trajs = [rng.normal(size=(int(rng.integers(1, 14)), 2)) for _ in range(6)]
    d = distance_matrix(trajs)
    validate_distance_matrix(d)
    for i in range(6):
        for j in range(6):
            assert d[i, j] == frechet_distance(trajs[i], trajs[j])


def test_distance_matrix_rejects_mixed_dims():
    with pytest.raises(InvalidInputError):
        distance_matrix([np.zeros((2, 2)), np.zeros((2, 3))])


def _ragged(seed, m, dim, longest=12):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(int(rng.integers(1, longest + 1)), dim)) * 10.0 ** rng.uniform(-2, 2)
            for _ in range(m)]


def _with_duplicates(seed):
    trajs = _ragged(seed, 7, 2)
    trajs[3] = trajs[0].copy()
    trajs[5] = trajs[0]
    return trajs


ORACLE_SETS = {
    "ragged_2d": lambda: _ragged(21, 7, 2),
    "ragged_3d": lambda: _ragged(22, 7, 3),
    "ragged_8d": lambda: _ragged(23, 7, 8, longest=6),
    "single_points": lambda: _ragged(24, 7, 2, longest=1),
    "duplicates": lambda: _with_duplicates(25),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SETS))
@pytest.mark.parametrize("pairs_per_block", [1, 3, 4, 5, 8, None])
def test_kernel_matches_reference_dp_bit_for_bit(monkeypatch, name, pairs_per_block):
    # 7 trajectories give 21 pairs. At most 1, 3, 4, 5 or 8 pairs per block
    # they run as 21 blocks of 1, 7 of 3, 6 of 3 or 4, 5 of 4 or 5 and 3 of
    # 7; at the default, as one block.
    trajs = ORACLE_SETS[name]()
    if pairs_per_block is not None:
        longest = max(len(t) for t in trajs)  # every pair is padded to P = Q = longest
        monkeypatch.setattr(geometry, "_FRECHET_BLOCK_POINTS", pairs_per_block * 2 * longest)
    m = len(trajs)
    expected = np.array([[reference_frechet(trajs[i], trajs[j]) for j in range(m)]
                         for i in range(m)])
    assert np.array_equal(distance_matrix(trajs), expected)
    pairwise = np.array([[frechet_distance(trajs[i], trajs[j]) for j in range(m)]
                         for i in range(m)])
    assert np.array_equal(pairwise, expected)


@pytest.mark.parametrize("m, pairs_per_block, widths", [
    (7, 4, [3, 4, 3, 4, 3, 4]), (7, 5, [4, 4, 4, 4, 5]), (7, 8, [7, 7, 7]),
    (7, 21, [21]), (7, 1, [1] * 21), (33, 128, [105, 106, 105, 106, 106]), (1, 4, []),
])
def test_kernel_blocks_partition_the_pairs(monkeypatch, m, pairs_per_block, widths):
    # The fewest blocks of at most pairs_per_block pairs, widths differing by
    # at most one, take every pair once, in order. 33 trajectories of 100
    # points are the obstacle corpus's 528 pairs at the default cap.
    rng = np.random.default_rng(m)
    trajs = [rng.normal(size=(100, 2)) for _ in range(m)]
    monkeypatch.setattr(geometry, "_FRECHET_BLOCK_POINTS", pairs_per_block * (100 + 100))
    taken = []
    take = np.take

    def recording_take(a, indices, *args, **kwargs):
        taken.append(np.array(indices))
        return take(a, indices, *args, **kwargs)

    monkeypatch.setattr(geometry.np, "take", recording_take)
    d = distance_matrix(trajs)
    monkeypatch.undo()
    assert [len(i) for i in taken[::2]] == widths
    ia, ib = np.triu_indices(m, 1)
    assert np.array_equal(np.concatenate(taken[::2] or [ia]), ia)
    assert np.array_equal(np.concatenate(taken[1::2] or [ib]), ib)
    assert np.array_equal(d, distance_matrix(trajs))
    assert m > 1 or np.array_equal(d, [[0.0]])  # one trajectory, no pairs


@pytest.mark.parametrize("lengths", [(170, 300), (300, 170)])
def test_unequal_lengths_match_reference_dp_bit_for_bit(lengths):
    # P != Q: antidiagonals of every length from 1 to min(P, Q), and the long
    # middle stretch where they neither start at row 0 nor end at row P-1.
    rng = np.random.default_rng(sum(lengths))
    p, q = (np.cumsum(rng.normal(size=(n, 2)), axis=0) for n in lengths)
    assert frechet_distance(p, q) == reference_frechet(p, q)


def test_long_pair_scratch_memory_is_linear_in_length():
    # A 2000 x 2000 pair used to allocate a 32 MB (P, Q) buffer of squared
    # distances; the antidiagonal kernel holds O(P + Q) scratch.
    rng = np.random.default_rng(2000)
    p, q = (np.cumsum(rng.normal(size=(2000, 2)), axis=0) for _ in range(2))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        frechet_distance(p, q)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


@pytest.mark.slow
@pytest.mark.parametrize("m", [60, 120])
def test_distance_matrix_scratch_memory_stays_bounded(m):
    # The block scratch arrays are capped by _FRECHET_BLOCK_POINTS; only the
    # corpus, index and output arrays grow with the number of trajectories.
    rng = np.random.default_rng(m)
    trajs = [np.cumsum(rng.normal(size=(100, 2)), axis=0) for _ in range(m)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        distance_matrix(trajs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


# sha256 of distance_matrix(...).tobytes() on the harness's default corpora
# (corpus_seed 7, 100 points per trajectory), recorded against the row-batched
# kernel that computed a square root on every antidiagonal. Any drift in the
# coupling DP, the point distances or the padding shows here.
GOLDEN_MATRIX_SHA256 = {
    "obstacle": "0d2a6992d2fd0066b5b051a5fdc3eb34ab36046e9c1b3c2cf9b5f5c1b58fa6ca",
    "fixed": "25cbfb1433236d9e5a4ea0dc431e9c179452d95417598bbe5d1e71d29e814e2b",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_MATRIX_SHA256))
def test_default_corpus_matrix_matches_golden(kind):
    corpus = load_corpus(ExperimentConfig(corpus_kind=kind, corpus_seed=7))
    digest = hashlib.sha256(distance_matrix(corpus).tobytes()).hexdigest()
    assert digest == GOLDEN_MATRIX_SHA256[kind]


@pytest.mark.slow
def test_distance_matrix_runtime_200x100():
    rng = np.random.default_rng(16)
    trajs = [np.cumsum(rng.normal(size=(100, 2)), axis=0) for _ in range(200)]
    start = time.monotonic()
    d = distance_matrix(trajs)
    elapsed = time.monotonic() - start
    validate_distance_matrix(d)
    assert elapsed < 60.0


def test_trajectory_jsonl_round_trip(tmp_path):
    trajs = [Trajectory("a", np.array([[0.0, 1.0], [2.0, 3.0]])),
             Trajectory("b", np.array([[5.0, 5.0]]))]
    path = tmp_path / "t.jsonl"
    save_trajectories(path, trajs)
    loaded = load_trajectories(path)
    assert [t.id for t in loaded] == ["a", "b"]
    assert np.array_equal(loaded[0].points, trajs[0].points)


def test_trajectory_reader_rejects_ragged_points(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"id": "x", "points": [[0, 0], [1]]}) + "\n")
    with pytest.raises(InvalidInputError):
        load_trajectories(path)


@pytest.mark.parametrize("record, message", [
    ({"id": "x", "pts": []}, "missing field 'points'"),
    ({"points": [[0, 0]]}, "missing field 'id'"),
    ([[0, 0]], "expected a JSON object, got list"),
    ({"id": "x", "points": 5}, "points must be a non-empty list of points"),
    ({"id": "x", "points": []}, "points must be a non-empty list of points"),
    ({"id": "x", "points": [[0, "a"]]}, "malformed field 'points'"),
])
def test_trajectory_reader_names_the_line_and_field(tmp_path, record, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"id": "ok", "points": [[0, 0]]}) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(InvalidInputError, match=message) as exc:
        load_trajectories(path)
    assert str(exc.value).startswith(f"{path}:2: ")


def test_trajectory_reader_rejects_cross_record_dims(tmp_path):
    path = tmp_path / "bad.jsonl"
    lines = [json.dumps({"id": "x", "points": [[0, 0]]}),
             json.dumps({"id": "y", "points": [[0, 0, 0]]})]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidInputError):
        load_trajectories(path)


def test_trajectory_reader_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.jsonl"
    lines = [json.dumps({"id": tid, "points": [[0, k], [1, k]]})
             for k, tid in enumerate(["x", "y", "x"])]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidInputError, match="duplicate trajectory id 'x'") as exc:
        load_trajectories(path)
    assert str(exc.value).startswith(f"{path}:3: ")
    assert "first on line 1" in str(exc.value)


@pytest.mark.parametrize("points", [
    [[0.0]],
    [[0.0, 1.0], [2.0, -1.0], [2.5, 0.5], [1.0, 4.0]],
    [[0.1, 0.2, 0.3], [-1.0, 2.0, 0.5], [3.0, 3.0, 3.0]],
    [[2.0], [-1.5], [4.25]],
])
def test_cached_per_trajectory_arrays_are_read_only_and_exact(points):
    t = Trajectory("t", np.array(points))
    velocities = np.diff(t.points, axis=0)
    references = {
        "velocities": velocities,
        "speeds": np.sqrt((velocities ** 2).sum(axis=1)),
        "bounds": np.array([t.points.min(axis=0), t.points.max(axis=0)]),
    }
    for name, ref in references.items():
        value = getattr(t, name)
        assert value is getattr(t, name)
        assert np.array_equal(value, ref)
        with pytest.raises(ValueError):
            value[...] = 0.0
    assert t.arc_length == float(references["speeds"].sum())


def test_pickled_trajectory_stays_read_only():
    t = Trajectory("t", np.array([[0.0, 1.0], [2.0, -1.0], [2.5, 0.5]]))
    t.speeds
    u = pickle.loads(pickle.dumps(t))
    assert u.id == t.id and np.array_equal(u.points, t.points)
    for name in ("points", "velocities", "speeds", "bounds"):
        assert not getattr(u, name).flags.writeable
        assert np.array_equal(getattr(u, name), getattr(t, name))


@pytest.mark.parametrize("points", [
    [[0.0, 1.0], [2.0, -1.0], [2.5, 0.5], [1.0, 4.0]],
    [[0.1, 0.2, 0.3], [-1.0, 2.0, 0.5], [3.0, 3.0, 3.0]],
    [[2.0], [-1.5], [4.25]],
])
def test_cached_per_trajectory_scalars_are_exact_and_survive_pickling(points):
    t = Trajectory("t", np.array(points))
    expected = {"mean_speed": float(t.speeds.mean()), "arc_length": float(t.speeds.sum())}
    t.mean_speed, t.arc_length  # cached before pickling
    for u in (t, pickle.loads(pickle.dumps(t))):
        for name, value in expected.items():
            assert getattr(u, name) is getattr(u, name)  # computed once
            assert getattr(u, name) == value


def test_single_point_trajectory_has_no_mean_speed():
    t = Trajectory("t", np.array([[1.0, 2.0]]))
    assert math.isnan(t.mean_speed) and t.arc_length == 0.0


def test_a_step_that_overflows_is_rejected():
    t = Trajectory("t", np.array([[-1e308], [1e308]]))
    for name in ("velocities", "speeds", "mean_speed", "arc_length"):
        with pytest.raises(InvalidInputError, match="trajectory 't'.*overflows"):
            getattr(t, name)
