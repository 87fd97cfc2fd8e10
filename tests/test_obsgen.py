import math

import numpy as np
import pytest

from helpers import reference_nearest_distances
from mhpf.errors import InvalidInputError
from mhpf.evaluation import ExperimentConfig, load_corpus
from mhpf.filtration import ClusterNode, ClusterTree, single_linkage
from mhpf.geometry import Trajectory, distance_matrix
from mhpf.obsgen import (ClassPointIndex, ObsConfig, bbox_diagonal, default_coarse_level,
                         gen_coarse, gen_fine, load_observations, observation_plan,
                         save_observations)
from mhpf.stack import CoarseObservation, FineObservation


def test_bbox_diagonal(fixed_corpus):
    scale = bbox_diagonal(fixed_corpus)
    pts = np.vstack([t.points for t in fixed_corpus])
    span = pts.max(0) - pts.min(0)
    assert scale == pytest.approx(np.hypot(*span))


def test_fine_zero_noise_exact():
    obs = gen_fine([1.0, 2.0], 0.0, 10.0, np.random.default_rng(1))
    assert np.array_equal(obs.position, [1.0, 2.0])


@pytest.mark.parametrize("psi", [-0.1, float("nan"), float("inf")])
def test_generators_reject_negative_or_non_finite_psi(fixed_corpus, fixed_tree, psi):
    rng = np.random.default_rng(1)
    with pytest.raises(InvalidInputError, match="psi must be finite and >= 0"):
        gen_fine(np.zeros(2), psi, 1.0, rng)
    # Unchecked, a NaN or inf psi scores every class NaN and names the first one.
    with pytest.raises(InvalidInputError, match="psi must be finite and >= 0"):
        gen_coarse(fixed_corpus[0].points[5], psi, ClassPointIndex(fixed_tree, fixed_corpus),
                   0.0, rng, 1.0)


def test_fine_offsets_one_sided():
    rng = np.random.default_rng(2)
    z = np.array([0.0, 0.0])
    for _ in range(200):
        obs = gen_fine(z, 0.1, 5.0, rng)
        assert np.all(obs.position >= 0.0)
        assert np.all(obs.position <= 0.5)


def test_fine_offset_mean():
    rng = np.random.default_rng(3)
    psi, scale, n = 0.2, 4.0, 100_000
    offs = np.stack([gen_fine(np.zeros(2), psi, scale, rng).position for _ in range(n)])
    width = psi * scale
    se = width / np.sqrt(12.0 * n)
    assert abs(offs[:, 0].mean() - width / 2.0) < 3 * se
    assert abs(offs[:, 1].mean() - width / 2.0) < 3 * se


def test_nearest_distances_match_per_coordinate_reference():
    corpus = load_corpus(ExperimentConfig(corpus_kind="obstacle", corpus_seed=7))
    tree = single_linkage(distance_matrix(corpus), member_ids=[t.id for t in corpus])
    index = ClassPointIndex(tree, corpus)
    rng = np.random.default_rng(8)
    scale = bbox_diagonal(corpus)
    births = tree.unique_births()
    for level in (births[0], births[len(births) // 2], births[-1]):
        alive = tree.alive_ids(level)
        for t in range(12):
            z = corpus[int(rng.integers(len(corpus)))].points[int(rng.integers(100))]
            # Near the corpus (noise on the scale of coarse observations), then far outside it.
            spread = 0.01 * scale if t % 2 else 10.0 * scale
            samples = z + rng.normal(0.0, spread, size=(10, 2))
            assert np.array_equal(index.nearest_distances(samples, alive),
                                  reference_nearest_distances(tree, corpus, samples, alive))


def test_coarse_zero_noise_picks_containing_class(fixed_corpus, fixed_tree):
    level = default_coarse_level(fixed_tree)
    idx = ClassPointIndex(fixed_tree, fixed_corpus)
    truth = fixed_corpus[0]
    z = truth.points[len(truth) // 2]
    obs = gen_coarse(z, 0.0, idx, level, np.random.default_rng(5), 1.0)
    leaf = fixed_tree.leaf_for(truth.id)
    assert obs.class_id == fixed_tree.ancestor_alive_at(leaf, level)


def test_coarse_returns_alive_class(fixed_corpus, fixed_tree):
    rng = np.random.default_rng(6)
    idx = ClassPointIndex(fixed_tree, fixed_corpus)
    for b in fixed_tree.unique_births():
        z = fixed_corpus[int(rng.integers(len(fixed_corpus)))].points[20]
        obs = gen_coarse(z, 0.05, idx, b, rng, bbox_diagonal(fixed_corpus))
        assert obs.class_id in fixed_tree.alive_at(b)
        assert obs.level == b


def test_coarse_tie_breaks_by_smallest_id():
    # Two mirror-image trajectories; a query on the symmetry axis ties exactly.
    from mhpf.geometry import Trajectory
    up = Trajectory("u", np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]]))
    dn = Trajectory("d", np.array([[0.0, -1.0], [1.0, -1.0], [2.0, -1.0]]))
    tree = single_linkage(distance_matrix([up, dn]), member_ids=["u", "d"])
    obs = gen_coarse([1.0, 0.0], 0.0, ClassPointIndex(tree, [up, dn]), 0.0,
                     np.random.default_rng(7), 1.0)
    assert obs.class_id == 0


@pytest.mark.parametrize("level", [float("nan"), float("inf"), 1.5])
def test_coarse_level_with_no_class_alive_is_rejected(level):
    # Leaves die at 1 and the root is born at 2: a loaded tree with a gap.
    nodes = {0: ClusterNode(0, frozenset({"a"}), 0.0, 1.0, 2, ()),
             1: ClusterNode(1, frozenset({"b"}), 0.0, 1.0, 2, ()),
             2: ClusterNode(2, frozenset({"a", "b"}), 2.0, math.inf, None, (0, 1))}
    trajs = [Trajectory("a", np.zeros((3, 2))), Trajectory("b", np.ones((3, 2)))]
    index = ClassPointIndex(ClusterTree(nodes, 2), trajs)
    with pytest.raises(InvalidInputError, match=f"no class is alive at level {level!r}"):
        gen_coarse([0.5, 0.5], 0.01, index, level, np.random.default_rng(0), 1.0)
    if not math.isfinite(level):
        with pytest.raises(InvalidInputError, match=f"no class is alive at level {level!r}"
                                                    ": coarse_level must be finite and >= 0"):
            ObsConfig(psi=0.01, coarse_level=level)


def test_coarse_small_noise_matches_nearest_class_rule(fixed_corpus, fixed_tree):
    rng = np.random.default_rng(8)
    idx = ClassPointIndex(fixed_tree, fixed_corpus)
    level = default_coarse_level(fixed_tree)
    alive = sorted(fixed_tree.alive_at(level))
    by_id = {t.id: t for t in fixed_corpus}
    member_points = {c: np.vstack([by_id[m].points for m in fixed_tree.nodes[c].members])
                     for c in alive}

    def nearest(c, z):
        return float(np.sqrt(((member_points[c] - z) ** 2).sum(axis=1)).min())

    for _ in range(25):
        z = np.array([rng.uniform(0, 10), rng.uniform(-6, 6)])
        obs = gen_coarse(z, 1e-6, idx, level, np.random.default_rng(9),
                         bbox_diagonal(fixed_corpus))
        direct = min(alive, key=lambda c: (nearest(c, z), c))
        assert obs.class_id == direct


def test_coarse_junction_monte_carlo(junction_corpus):
    tree = single_linkage(distance_matrix(junction_corpus),
                          member_ids=[t.id for t in junction_corpus])
    idx = ClassPointIndex(tree, junction_corpus)
    # Level with exactly the two branch super-clusters alive.
    level = next(b for b in tree.unique_births() if len(tree.alive_at(b)) == 2)
    truth = junction_corpus[0]
    leaf = tree.leaf_for(truth.id)
    want = tree.ancestor_alive_at(leaf, level)
    z = truth.points[-5]  # deep inside the branch
    rng = np.random.default_rng(10)
    hits = sum(
        gen_coarse(z, 0.02, idx, level, rng, bbox_diagonal(junction_corpus)).class_id == want
        for _ in range(1000))
    assert hits >= 950


def test_default_coarse_level_class_count(fixed_tree):
    b = default_coarse_level(fixed_tree)
    m = fixed_tree.leaf_count
    assert len(fixed_tree.alive_at(b)) <= max(2, -(-m // 2))
    prior = [x for x in fixed_tree.unique_births() if x < b]
    if prior:
        assert len(fixed_tree.alive_at(prior[-1])) > max(2, -(-m // 2))


def test_observation_plan_mixed(fixed_corpus, fixed_tree):
    cfg = ObsConfig(psi=0.01, coarse_prob=0.5)
    rng = np.random.default_rng(11)
    plan = observation_plan(fixed_corpus[0].points, cfg,
                            ClassPointIndex(fixed_tree, fixed_corpus),
                            bbox_diagonal(fixed_corpus), rng)
    assert len(plan) == len(fixed_corpus[0]) - 1
    n_coarse = 0
    for obs in plan:
        kinds = [type(o) for o in obs]
        assert kinds[0] is FineObservation
        if len(obs) == 2:
            assert kinds[1] is CoarseObservation
            n_coarse += 1
    assert 25 <= n_coarse <= 45  # ~50% of 59 steps


def test_observation_plan_lead_in(fixed_corpus, fixed_tree):
    cfg = ObsConfig(psi=0.01, mode="lead_in", lead_in_fraction=0.1)
    rng = np.random.default_rng(12)
    plan = observation_plan(fixed_corpus[0].points, cfg,
                            ClassPointIndex(fixed_tree, fixed_corpus),
                            bbox_diagonal(fixed_corpus), rng)
    steps = len(plan)
    lead = round(0.1 * steps)
    for t, obs in enumerate(plan, start=1):
        assert len(obs) == 1
        if t <= lead:
            assert isinstance(obs[0], FineObservation)
        else:
            assert isinstance(obs[0], CoarseObservation)


def test_observation_stream_round_trip(tmp_path, fixed_corpus, fixed_tree):
    cfg = ObsConfig(psi=0.02, coarse_prob=0.5)
    rng = np.random.default_rng(14)
    plan = observation_plan(fixed_corpus[0].points, cfg,
                            ClassPointIndex(fixed_tree, fixed_corpus),
                            bbox_diagonal(fixed_corpus), rng)
    path = tmp_path / "obs.jsonl"
    save_observations(path, plan)
    loaded = load_observations(path)
    assert len(loaded) == len(plan)
    for a, b in zip(plan, loaded):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            if isinstance(x, FineObservation):
                assert np.array_equal(x.position, y.position)
            else:
                assert (x.class_id, x.level) == (y.class_id, y.level)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        ObsConfig(psi=-0.1)
    with pytest.raises(InvalidInputError):
        ObsConfig(psi=0.1, coarse_prob=1.5)
    with pytest.raises(InvalidInputError):
        ObsConfig(psi=0.1, mode="bogus")
    with pytest.raises(InvalidInputError, match="level -1.0: coarse_level must be finite"):
        ObsConfig(psi=0.1, coarse_level=-1.0)


@pytest.mark.parametrize("line, message", [
    ('{"t": 1, "position": [0.0, 1.0]}', "missing field 'kind'"),
    ('{"t": 1, "kind": "fine"}', "missing field 'position'"),
    ('{"t": 1, "kind": "coarse", "level": 1.0}', "missing field 'class_id'"),
    ('{"t": 1, "kind": "coarse", "class_id": 3}', "missing field 'level'"),
    ('{"kind": "fine", "position": [0.0, 1.0]}', "missing field 't'"),
    ('[1, 2]', "expected a JSON object"),
    ('"fine"', "expected a JSON object"),
    ('{"t": "one", "kind": "fine", "position": [0.0, 1.0]}', "invalid literal"),
    ('{"t": 1, "kind": "radar", "position": [0.0, 1.0]}', "unknown observation kind"),
    ('{"t": 1, "kind": "fine"', "Expecting"),
])
def test_load_observations_names_the_bad_line(tmp_path, line, message):
    path = tmp_path / "obs.jsonl"
    path.write_text('{"t": 1, "kind": "fine", "position": [0.0, 0.0]}\n\n' + line + "\n")
    with pytest.raises(InvalidInputError, match="line 3") as exc:
        load_observations(path)
    assert message in str(exc.value)
