import numpy as np
import pytest
from scipy.spatial.distance import cdist

from helpers import ragged_corpus, reference_harvest

from mhpf import dynamics
from mhpf.dynamics import ClassDynamics, build_dynamics, harvest_samples
from mhpf.errors import InvalidInputError
from mhpf.filtration import single_linkage
from mhpf.geometry import Trajectory, distance_matrix


def make_dynamics(positions, velocities, eps=10.0, kappa=0.0, **kw):
    return ClassDynamics(class_id=0,
                         positions=np.asarray(positions, dtype=float),
                         velocities=np.asarray(velocities, dtype=float),
                         epsilon=eps, kappa=kappa,
                         velocity_scale=float(np.sqrt((np.asarray(velocities, dtype=float) ** 2)
                                                      .sum(axis=1)).mean()),
                         **kw)


def velocity_at(dyn, z):
    """local_velocities of the one-row batch [z]: (velocity, fallback flag)."""
    vels, flags = dyn.local_velocities(np.asarray([z], dtype=float))
    assert vels.shape == (1, 2) and flags.shape == (1,)
    return vels[0], bool(flags[0])


def line_corpus():
    t0 = Trajectory("a", np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    t1 = Trajectory("b", np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]]))
    tree = single_linkage(distance_matrix([t0, t1]), member_ids=["a", "b"])
    return tree, [t0, t1]


def test_harvest_counts_and_velocities():
    t = Trajectory("a", np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    pos, vel = harvest_samples([t])
    assert pos.shape == (2, 2)
    assert np.array_equal(vel, np.array([[1.0, 0.0], [1.0, 0.0]]))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_build_matches_reference_harvest_bit_for_bit(dim):
    rng = np.random.default_rng(40 + dim)
    for _ in range(10):
        corpus, tree = ragged_corpus(rng, dim)
        by_id = {t.id: t for t in corpus}
        dyn = build_dynamics(tree, corpus, kappa=0.0, epsilon_floor=0.5)
        for nid, d in dyn.items():
            positions, velocities, scale = reference_harvest(
                [by_id[m] for m in sorted(tree.nodes[nid].members)])
            assert np.array_equal(d.positions, positions)
            assert np.array_equal(d.velocities, velocities)
            assert d.velocity_scale == scale


def test_build_epsilon_rule():
    tree, trajs = line_corpus()
    dyn = build_dynamics(tree, trajs, kappa=0.0, epsilon_floor=0.1)
    for leaf in tree.leaves():
        assert dyn[leaf].epsilon == 0.1
    root = tree.root
    assert dyn[root].epsilon == tree.nodes[root].birth == 1.0


def test_build_internal_epsilon_uses_birth():
    tree, trajs = line_corpus()
    dyn = build_dynamics(tree, trajs, kappa=0.0, epsilon_floor=2.5)
    # Floor dominates a birth of 1.0.
    assert dyn[tree.root].epsilon == 2.5


def test_build_covers_leaves_and_root_only(hand_tree):
    trajs = [Trajectory(str(i), np.array([[0.0, y], [1.0, y]])) for i, y in enumerate((0, 1, 3))]
    dyn = build_dynamics(hand_tree, trajs, kappa=0.0, epsilon_floor=0.5)
    assert len(hand_tree.nodes) == 5
    assert sorted(dyn) == sorted(hand_tree.leaves() + [hand_tree.root])
    assert len(dyn[hand_tree.root].positions) == 3


def test_build_rejects_zero_sample_class():
    t0 = Trajectory("a", np.array([[0.0, 0.0]]))
    t1 = Trajectory("b", np.array([[3.0, 0.0], [4.0, 0.0]]))
    tree = single_linkage(distance_matrix([t0, t1]), member_ids=["a", "b"])
    with pytest.raises(InvalidInputError, match="class 0"):
        build_dynamics(tree, [t0, t1], kappa=0.0, epsilon_floor=0.5)


def test_coincident_sample_short_circuits():
    dyn = make_dynamics([[0.0, 0.0]], [[1.0, 0.0]])
    vel, extrapolated = velocity_at(dyn, [0.0, 0.0])
    assert np.array_equal(vel, [1.0, 0.0])
    assert not extrapolated


def test_equidistant_samples_average():
    dyn = make_dynamics([[1.0, 0.0], [-1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    vel, _ = velocity_at(dyn, [0.0, 0.0])
    assert np.allclose(vel, [0.5, 0.5], atol=1e-12)


def test_inverse_distance_formula():
    positions = [[1.0, 0.0], [0.0, 2.0], [4.0, 0.0]]
    velocities = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    dyn = make_dynamics(positions, velocities, eps=5.0)
    vel, _ = velocity_at(dyn, [0.0, 0.0])
    w = np.array([1.0, 0.5, 0.25])
    expected = (w[:, None] * np.asarray(velocities)).sum(axis=0) / w.sum()
    assert np.allclose(vel, expected, atol=1e-12)


def test_weights_sum_to_one():
    rng = np.random.default_rng(31)
    positions = rng.normal(size=(20, 2))
    dyn = make_dynamics(positions, rng.normal(size=(20, 2)), eps=3.0)
    z = np.array([0.1, 0.2])
    d = np.sqrt(((positions - z) ** 2).sum(axis=1))
    inside = d[d < dyn.epsilon]
    w = (1.0 / inside)
    assert abs((w / w.sum()).sum() - 1.0) < 1e-9


def test_strict_ball_excludes_boundary():
    dyn = make_dynamics([[1.0, 0.0], [3.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]], eps=1.0)
    # Sample at distance exactly epsilon is outside the open ball; the other is
    # beyond it, so the nearest-sample fallback fires.
    vel, extrapolated = velocity_at(dyn, [0.0, 0.0])
    assert extrapolated
    assert np.array_equal(vel, [1.0, 0.0])


def test_empty_ball_falls_back_to_nearest():
    dyn = make_dynamics([[10.0, 0.0], [20.0, 0.0]], [[0.0, 1.0], [0.0, -1.0]], eps=0.5)
    vel, extrapolated = velocity_at(dyn, [0.0, 0.0])
    assert extrapolated
    assert np.array_equal(vel, [0.0, 1.0])


def test_translation_equivariance():
    rng = np.random.default_rng(32)
    positions = rng.normal(size=(15, 2))
    velocities = rng.normal(size=(15, 2))
    shift = np.array([100.0, -40.0])
    d1 = make_dynamics(positions, velocities, eps=2.0)
    d2 = make_dynamics(positions + shift, velocities, eps=2.0)
    z = np.array([0.3, -0.2])
    v1, f1 = velocity_at(d1, z)
    v2, f2 = velocity_at(d2, z + shift)
    assert f1 == f2
    assert np.allclose(v1, v2, atol=1e-9)


def test_velocity_in_convex_hull_of_ball():
    rng = np.random.default_rng(33)
    positions = rng.normal(size=(25, 2))
    velocities = rng.normal(size=(25, 2))
    dyn = make_dynamics(positions, velocities, eps=1.5)
    for _ in range(20):
        z = rng.normal(size=2)
        d = np.sqrt(((positions - z) ** 2).sum(axis=1))
        inside = d < dyn.epsilon
        if not inside.any() or (d == 0).any():
            continue
        vel, _ = velocity_at(dyn, z)
        lo = velocities[inside].min(axis=0) - 1e-12
        hi = velocities[inside].max(axis=0) + 1e-12
        assert np.all(vel >= lo) and np.all(vel <= hi)


def test_step_sample_kappa_zero_exact():
    dyn = make_dynamics([[0.0, 0.0]], [[0.5, -0.5]], kappa=0.0)
    rng = np.random.default_rng(0)
    new, flags = dyn.step_batch([[0.0, 0.0]], rng)
    assert np.array_equal(new, [[0.5, -0.5]])
    assert not flags.any()


def test_step_sample_deterministic_given_seed():
    rng_a = np.random.default_rng(5)
    positions = rng_a.normal(size=(10, 2))
    velocities = rng_a.normal(size=(10, 2))
    dyn = make_dynamics(positions, velocities, eps=2.0, kappa=0.4)
    out1, _ = dyn.step_batch([[0.0, 0.0]], np.random.default_rng(99))
    out2, _ = dyn.step_batch([[0.0, 0.0]], np.random.default_rng(99))
    assert np.array_equal(out1, out2)


def test_step_batch_matches_step_sample_stream():
    # A batch draws its noise row-major: stepping the rows one at a time on
    # one stream gives the same bits.
    dyn = make_dynamics([[0.0, 0.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]],
                        eps=5.0, kappa=0.7)
    zs = np.array([[0.2, 0.1], [0.9, 0.4], [30.0, 0.0]])
    batch, flags = dyn.step_batch(zs, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    singles = [dyn.step_batch(z[None, :], rng) for z in zs]
    assert np.array_equal(batch, np.vstack([new for new, _ in singles]))
    assert flags.tolist() == [bool(f[0]) for _, f in singles] == [False, False, True]


def test_noise_mean_matches_law_of_large_numbers():
    dyn = make_dynamics([[0.0, 0.0]], [[2.0, 0.0]], kappa=0.5)
    # velocity_scale is 2.0, so noise is uniform on [0, 1] per coordinate.
    rng = np.random.default_rng(8)
    n = 100_000
    draws, _ = dyn.step_batch(np.zeros((n, 2)), rng)
    noise = draws - np.array([2.0, 0.0])
    width = dyn.kappa * dyn.velocity_scale
    se = width / np.sqrt(12.0 * n)
    assert abs(noise[:, 0].mean() - width / 2.0) < 3 * se
    assert abs(noise[:, 1].mean() - width / 2.0) < 3 * se
    assert noise.min() >= 0.0


def test_centered_noise_switch():
    dyn = make_dynamics([[0.0, 0.0]], [[2.0, 0.0]], kappa=0.5, centered_noise=True)
    rng = np.random.default_rng(9)
    draws, _ = dyn.step_batch(np.zeros((5000, 2)), rng)
    noise = draws - np.array([2.0, 0.0])
    assert noise.min() < 0.0 < noise.max()
    width = dyn.kappa * dyn.velocity_scale
    se = width / np.sqrt(12.0 * 5000)
    assert abs(noise[:, 0].mean()) < 4 * se


def test_with_kappa_shares_samples():
    dyn = make_dynamics([[0.0, 0.0]], [[1.0, 0.0]], kappa=0.0)
    other = dyn.with_kappa(0.9)
    assert other.kappa == 0.9
    assert other.positions is dyn.positions
    assert other.velocities is dyn.velocities
    assert dyn.kappa == 0.0


@pytest.mark.parametrize("kappa", [-0.3, np.nan, np.inf])
def test_with_kappa_rejects_negative_or_non_finite(kappa):
    dyn = make_dynamics([[0.0, 0.0]], [[1.0, 0.0]], kappa=0.0)
    with pytest.raises(InvalidInputError, match="kappa"):
        dyn.with_kappa(kappa)
    with pytest.raises(InvalidInputError, match="kappa"):
        make_dynamics([[0.0, 0.0]], [[1.0, 0.0]], kappa=kappa)


@pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
def test_rejects_bad_epsilon(eps):
    with pytest.raises(InvalidInputError, match="epsilon"):
        make_dynamics([[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]], eps=eps)


@pytest.mark.parametrize("field", ["positions", "velocities"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_samples(field, bad):
    arrays = {"positions": [[0.0, 0.0], [1.0, 0.0]], "velocities": [[1.0, 0.0], [1.0, 0.0]]}
    arrays[field][1][0] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        ClassDynamics(class_id=0, positions=np.array(arrays["positions"]),
                      velocities=np.array(arrays["velocities"]), epsilon=1.0, kappa=0.0,
                      velocity_scale=1.0)


@pytest.mark.parametrize("floor", [0.0, np.nan, np.inf])
def test_build_rejects_bad_epsilon_floor(floor):
    tree, trajs = line_corpus()
    with pytest.raises(InvalidInputError, match="epsilon_floor"):
        build_dynamics(tree, trajs, kappa=0.0, epsilon_floor=floor)


def reference_velocities(dyn, zs):
    """The kernel written as np.where(inside, 1/d, 0) on copies of the regular rows."""
    d = cdist(zs, dyn.positions)
    inside = d < dyn.epsilon
    vels = np.empty_like(zs)
    zero_mask = d == 0.0
    has_zero = zero_mask.any(axis=1)
    empty = ~inside.any(axis=1)
    regular = ~empty & ~has_zero
    if regular.any():
        w = np.where(inside[regular], 1.0 / d[regular], 0.0)
        vels[regular] = (w @ dyn.velocities) / w.sum(axis=1)[:, None]
    vels[has_zero] = dyn.velocities[zero_mask[has_zero].argmax(axis=1)]
    vels[empty] = dyn.velocities[d[empty].argmin(axis=1)]
    return vels, empty


def kernel_case():
    """300 random samples with 1/3-ish of them inside a ball, and three kinds of query."""
    rng = np.random.default_rng(34)
    positions = rng.normal(size=(300, 2))
    dyn = make_dynamics(positions, rng.normal(size=(300, 2)), eps=0.8)
    regular = rng.normal(size=(40, 2))
    coincident = positions[[7, 7, 150, 299]]
    off = np.array([[50.0, 0.0], [-9.0, 40.0], [0.0, -30.0]])
    return dyn, regular, coincident, off


def assert_kernel_matches(dyn, zs, expected):
    before = zs.copy()
    vels, flags = dyn.local_velocities(zs)
    assert np.array_equal(zs, before)
    assert np.array_equal(vels, expected[0])
    assert np.array_equal(flags, expected[1])


def test_kernel_bit_identical_all_regular_batch():
    dyn, regular, _, _ = kernel_case()
    expected = reference_velocities(dyn, regular)
    assert not expected[1].any()
    assert_kernel_matches(dyn, regular, expected)


def test_kernel_bit_identical_mixed_batch():
    dyn, regular, coincident, off = kernel_case()
    zs = np.vstack([regular[:5], coincident[:2], off[:1], regular[5:20], coincident[2:],
                    off[1:], regular[20:]])
    expected = reference_velocities(dyn, zs)
    assert expected[1].sum() == len(off)
    assert np.array_equal(expected[0][5:7], dyn.velocities[[7, 7]])
    assert_kernel_matches(dyn, zs, expected)


def test_kernel_bit_identical_chunked(monkeypatch):
    dyn, regular, coincident, off = kernel_case()
    step = 7
    monkeypatch.setattr(dynamics, "_DENSE_PAIR_LIMIT", step * len(dyn.positions))
    # Chunks of 7 rows: the first two all-regular, the rest mixed.
    zs = np.vstack([regular[:14], coincident, off, regular[14:]])
    chunks = [reference_velocities(dyn, zs[lo:lo + step]) for lo in range(0, len(zs), step)]
    expected = tuple(np.concatenate(parts) for parts in zip(*chunks))
    assert len(chunks) > 2 and not chunks[0][1].any()
    assert_kernel_matches(dyn, zs, expected)


def test_kernel_all_fallback_batch_takes_nearest_samples():
    dyn, _, coincident, off = kernel_case()
    zs = np.vstack([off[:1], coincident, off[1:]])
    expected = reference_velocities(dyn, zs)
    d = cdist(zs, dyn.positions)
    assert np.array_equal(expected[0], dyn.velocities[d.argmin(axis=1)])
    assert expected[1].tolist() == [True, False, False, False, False, True, True]
    assert_kernel_matches(dyn, zs, expected)


@pytest.mark.parametrize("query, eps, first, extrapolated", [
    ([0.0, 0.0], 0.5, 1, True),   # off-manifold: samples 1 and 2 both at distance 1
    ([2.0, 2.0], 5.0, 3, False),  # coincident: samples 3 and 4 both on the query
])
def test_kernel_first_of_equidistant_nearest_samples_wins(query, eps, first, extrapolated):
    positions = np.array([[9.0, 9.0], [1.0, 0.0], [-1.0, 0.0], [2.0, 2.0], [2.0, 2.0]])
    velocities = np.arange(10.0).reshape(5, 2)
    vel, flag = velocity_at(make_dynamics(positions, velocities, eps=eps), query)
    assert np.array_equal(vel, velocities[first])
    assert flag == extrapolated


def test_kernel_coincident_sample_past_column_zero():
    positions = np.array([[0.3, 0.0], [0.0, 0.4], [0.0, 0.0], [0.1, 0.1]])
    velocities = np.array([[1.0, 0.0], [0.0, 1.0], [-2.0, 5.0], [3.0, 3.0]])
    dyn = make_dynamics(positions, velocities, eps=1.0)
    zs = np.array([[0.0, 0.0], [0.2, 0.2]])
    vels, flags = dyn.local_velocities(zs)
    assert np.array_equal(vels[0], [-2.0, 5.0])
    assert not flags.any()
    assert_kernel_matches(dyn, zs, reference_velocities(dyn, zs))
