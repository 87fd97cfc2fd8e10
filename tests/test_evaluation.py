import hashlib
import json
import math

import numpy as np
import pytest
from scipy.stats import ranksums

from helpers import (ReferenceLeafFilter, ragged_corpus, reference_bbox_diagonal,
                     reference_mean_spacing, reference_pooled_dynamics, start_sampler)

from mhpf import evaluation
from mhpf.dynamics import build_dynamics
from mhpf.errors import InvalidInputError
from mhpf.evaluation import (ExperimentConfig, RAW_FIELDS,
                             RunParams, SUMMARY_FIELDS, build_scenario,
                             convergence_time, filter_args, make_observation_plan,
                             map_tree_distance,
                             mean_spacing, mse, parse_raw_rows, read_csv, run_bl1,
                             run_bl2, run_experiment, run_mhpf, ranksum_p, summarize,
                             write_csv)
from mhpf.filtration import flat_tree, single_class_tree, single_linkage
from mhpf.geometry import Trajectory, distance_matrix
from mhpf.obsgen import ClassPointIndex, bbox_diagonal, gen_fine
from mhpf.seeding import PHASE_OBSERVE, child_seed, substream
from mhpf.stack import (CoarseObservation, FilterStack, FineObservation, LeafParticleFilter,
                        start_points)


def test_mse_trivials():
    assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mse([1.0, 0.0], [0.0, 0.0]) == 1.0


def test_mse_matches_formula():
    rng = np.random.default_rng(70)
    a, b = rng.normal(size=3), rng.normal(size=3)
    assert mse(a, b) == pytest.approx(sum((x - y) ** 2 for x, y in zip(a, b)), abs=1e-12)


def test_mse_rejects_mismatched_dims():
    with pytest.raises(InvalidInputError):
        mse([0.0], [0.0, 1.0])


def test_map_tree_distance_cases(hand_tree):
    # Truth leaf 0; its ancestor alive at 1.5 is node 3 (birth 1).
    assert map_tree_distance(hand_tree, 3, 0, 1.5) == 1.0     # MAP equals truth class
    assert map_tree_distance(hand_tree, 2, 0, 1.5) == 2.0     # sibling -> root birth
    assert map_tree_distance(hand_tree, 1, 0, 0.0) == 1.0     # sibling leaves
    assert map_tree_distance(hand_tree, hand_tree.root, 0, 1.5) == 2.0


def test_convergence_time_scan():
    assert convergence_time([0.1, 0.1], root_birth=3.0) == 0
    assert convergence_time([5.0, 5.0], root_birth=3.0) is None
    assert convergence_time([4.0, 4.0, 0.5, 0.5], root_birth=3.0) == 2
    assert convergence_time([4.0, 0.5, 4.0, 0.5], root_birth=3.0) == 3
    assert convergence_time([0.5, 0.5, 4.0], root_birth=3.0) is None


def fine_only_plan(corpus, truth, psi, seed, steps=None):
    scale = bbox_diagonal(corpus)
    rng = substream(seed, PHASE_OBSERVE)
    n = steps if steps is not None else len(truth) - 1
    return [[gen_fine(truth.points[t], psi, scale, rng)] for t in range(1, n + 1)]


def test_bl1_is_bit_identical_to_flat_tree_bottom_layer(fixed_corpus):
    corpus = fixed_corpus
    tree = flat_tree([t.id for t in corpus], root_birth=5.0)
    floor = 2.0 * mean_spacing(corpus)
    dyn = build_dynamics(tree, corpus, kappa=0.4, epsilon_floor=floor)
    prior = {c: 1.0 / tree.leaf_count for c in tree.leaves()}
    starts = start_points(tree, corpus)
    seed = child_seed(1234, 0, 0)
    stack = FilterStack(tree, dyn, prior, starts, 100, 0.01, seed)
    leaf_dyn = {c: dyn[c] for c in tree.leaves()}
    pf = ReferenceLeafFilter(tree.leaves(), leaf_dyn, prior, start_sampler(starts), 100, 0.01,
                             seed)
    bl1 = LeafParticleFilter(tree.leaves(), leaf_dyn, prior, starts, 100, 0.01, seed)
    assert np.array_equal(stack.leaf_positions, pf.positions)
    assert np.array_equal(stack.leaf_labels, pf.labels)
    plan = fine_only_plan(corpus, corpus[3], psi=0.02, seed=99)
    for obs in plan:
        snap_stack = stack.step(obs, snapshot_levels=[0.0])
        snap_pf = pf.step(obs)
        assert snap_stack == snap_pf == bl1.step(obs)
        assert np.array_equal(stack.leaf_positions, pf.positions)
        assert np.array_equal(stack.leaf_labels, pf.labels)
        assert np.array_equal(stack.leaf_weights, pf.weights)
    # The production baseline counts what the stack counts, as plain ints.
    assert bl1.diagnostics == stack.diagnostics
    for diagnostics in (bl1.diagnostics, stack.diagnostics):
        assert all(type(v) is int for v in diagnostics.values())
        json.dumps(diagnostics)


def test_bl2_is_bit_identical_to_single_class_stack(fixed_corpus):
    corpus = fixed_corpus
    tree = single_class_tree([t.id for t in corpus])
    # A single-class tree's birth is 0, so the floor is every class's radius.
    dyn = build_dynamics(tree, corpus, kappa=0.3, epsilon_floor=1.5)
    starts = start_points(tree, corpus)
    seed = child_seed(4321, 0, 0)
    stack = FilterStack(tree, dyn, {0: 1.0}, starts, 100, 0.01, seed)
    pf = ReferenceLeafFilter([0], {0: dyn[0]}, {0: 1.0}, start_sampler(starts), 100, 0.01, seed)
    plan = fine_only_plan(corpus, corpus[5], psi=0.05, seed=98)
    for obs in plan:
        snap_stack = stack.step(obs, snapshot_levels=[0.0])
        snap_pf = pf.step(obs)
        assert snap_stack == snap_pf
        assert np.array_equal(stack.leaf_positions, pf.positions)
        assert np.array_equal(stack.leaf_weights, pf.weights)


def test_bl1_ignores_coarse_observations(fixed_corpus, fixed_tree):
    corpus = fixed_corpus
    floor = 2.0 * mean_spacing(corpus)
    dyn = build_dynamics(fixed_tree, corpus, kappa=0.4, epsilon_floor=floor)
    leaves = fixed_tree.leaves()
    prior = {c: 1.0 / len(leaves) for c in leaves}
    starts = start_points(fixed_tree, corpus)
    seed = child_seed(7, 0, 0)
    leaf_dyn = {c: dyn[c] for c in leaves}
    pf_a = LeafParticleFilter(leaves, leaf_dyn, prior, starts, 100, 0.01, seed)
    pf_b = LeafParticleFilter(leaves, leaf_dyn, prior, starts, 100, 0.01, seed)
    plan = fine_only_plan(corpus, corpus[1], psi=0.02, seed=97)
    level = fixed_tree.unique_births()[3]
    cls = sorted(fixed_tree.alive_at(level))[0]
    for obs in plan:
        snap_a = pf_a.step(obs)
        snap_b = pf_b.step(list(obs) + [CoarseObservation(cls, level)])
        assert snap_a == snap_b


@pytest.mark.parametrize("position", [[np.nan, 0.0], [0.0, -np.inf], [1.0, 0.0, 0.0]])
def test_flat_filter_rejects_bad_position_without_changing_state(fixed_corpus, fixed_tree,
                                                                 position):
    dyn = build_dynamics(fixed_tree, fixed_corpus, kappa=0.4,
                         epsilon_floor=2.0 * mean_spacing(fixed_corpus))
    leaves = fixed_tree.leaves()
    pf = LeafParticleFilter(leaves, {c: dyn[c] for c in leaves},
                            {c: 1.0 / len(leaves) for c in leaves},
                            start_points(fixed_tree, fixed_corpus), 100, 0.01, 5)
    plan = fine_only_plan(fixed_corpus, fixed_corpus[1], psi=0.02, seed=95, steps=2)
    pf.step(plan[0])
    before = (pf.t, pf.leaf_labels.copy(), pf.leaf_positions.copy(), pf.leaf_weights.copy(),
              dict(pf.diagnostics))
    with pytest.raises(InvalidInputError):
        pf.step(plan[1] + [FineObservation(np.array(position))])
    assert pf.t == before[0] == 1
    assert pf.diagnostics == before[4]
    for a, b in zip((pf.leaf_labels, pf.leaf_positions, pf.leaf_weights), before[1:4]):
        assert np.array_equal(a, b)


def test_bl1_zero_noise_locks_on(fixed_corpus):
    scenario = build_scenario(fixed_corpus, truth_index=0, holdout=False, index=0)
    params = RunParams(kappa=0.0, psi=0.0, depletion=0.0, coarse_prob=0.0)
    res = run_bl1(scenario, params, seed=11, repeat=0)
    quarter = len(res.mse) // 4
    assert np.mean(res.mse[-quarter:]) < 1e-9
    assert res.mse[-1] < 1e-12


def test_run_results_have_consistent_lengths(fixed_corpus):
    scenario = build_scenario(fixed_corpus, truth_index=2, index=2)
    params = RunParams(kappa=0.3, psi=0.01, coarse_prob=0.5)
    seed = 13
    plan = make_observation_plan(scenario, params, seed, 0)
    for runner in (run_mhpf, run_bl1, run_bl2):
        res = runner(scenario, params, seed, 0, plan=plan)
        assert len(res.mse) == len(plan)
        assert len(res.tree_distance) == len(plan)
        assert res.convergence_step == convergence_time(res.tree_distance,
                                                        scenario.tree.root_birth)


def test_holdout_excludes_truth(fixed_corpus):
    scenario = build_scenario(fixed_corpus, truth_index=4, index=4)
    ids = {t.id for t in scenario.corpus}
    assert fixed_corpus[4].id not in ids
    assert scenario.tree.leaf_count == len(fixed_corpus) - 1
    # The nearest remaining leaf stands in as the true class.
    assert scenario.truth_leaf in scenario.tree.leaves()


def test_corpus_scale_and_spacing_match_stacked_references(fixed_corpus, junction_corpus):
    rng = np.random.default_rng(12)
    corpora = [fixed_corpus, junction_corpus, evaluation.load_corpus(ExperimentConfig(corpus_n=9))]
    corpora += [ragged_corpus(rng, dim)[0] for dim in (1, 2, 3) for _ in range(3)]
    for corpus in corpora:
        assert bbox_diagonal(corpus) == reference_bbox_diagonal(corpus)
        assert mean_spacing(corpus) == reference_mean_spacing(corpus)


def test_set_up_helpers_reject_mixed_dimensions():
    corpus = [Trajectory("a", np.array([[0.0, 0.0], [1.0, 0.0]])),
              Trajectory("b", np.array([[0.0, 1.0], [1.0, 1.0]])),
              Trajectory("c", np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))]
    tree = single_linkage(np.ones((3, 3)) - np.eye(3), member_ids=["a", "b", "c"])
    calls = [lambda: bbox_diagonal(corpus),
             lambda: build_dynamics(tree, corpus, kappa=0.0, epsilon_floor=0.5),
             lambda: ClassPointIndex(tree, corpus),
             lambda: start_points(tree, corpus),
             lambda: build_scenario(corpus, 0, full_matrix=np.ones((3, 3)) - np.eye(3)),
             lambda: build_scenario(corpus, 0)]
    for call in calls:
        with pytest.raises(InvalidInputError, match="share one dimension"):
            call()


_A = Trajectory("a", np.array([[0.0, 0.0], [1.0, 0.0]]))
_B = Trajectory("b", np.array([[0.0, 1.0], [1.0, 1.0]]))


@pytest.mark.parametrize("consumer", [
    lambda tree, ts: build_dynamics(tree, ts, kappa=0.0, epsilon_floor=0.5),
    ClassPointIndex,
    start_points,
], ids=["build_dynamics", "ClassPointIndex", "start_points"])
@pytest.mark.parametrize("corpus, message", [
    ([_A], r"class 1: unknown member trajectories \['b'\]"),
    ([_A, _B, Trajectory("b", np.array([[5.0, 5.0], [6.0, 6.0]]))],
     "duplicate trajectory id 'b'"),
], ids=["missing_member", "repeated_id"])
def test_set_up_helpers_name_a_missing_member_or_a_repeated_id(consumer, corpus, message):
    tree = single_linkage(np.ones((2, 2)) - np.eye(2), member_ids=["a", "b"])
    with pytest.raises(InvalidInputError, match=message):
        consumer(tree, corpus)


def test_bbox_diagonal_rejects_an_empty_corpus():
    with pytest.raises(InvalidInputError, match="at least one trajectory"):
        bbox_diagonal([])


@pytest.mark.parametrize("shape", [(3, 3), (5, 5), (4,), (4, 5)])
def test_build_scenario_rejects_a_full_matrix_of_the_wrong_shape(fixed_corpus, shape):
    corpus = fixed_corpus[:4]
    with pytest.raises(InvalidInputError, match="does not match 4 trajectories"):
        build_scenario(corpus, 3, full_matrix=np.zeros(shape))


def set_up_digests(scenarios) -> dict:
    """sha256 per set-up product over the scenarios, in order: the tree nodes, the
    leaf dynamics, the class point index, and the scale with the radius floor."""
    digests = {name: hashlib.sha256() for name in ("trees", "dynamics", "point_index", "scales")}
    for sc in scenarios:
        digests["trees"].update(json.dumps(sc.tree.to_dict(), sort_keys=True).encode())
        for nid, d in sc.dynamics_base.items():
            digests["dynamics"].update(np.array(nid).tobytes() + d.positions.tobytes()
                                       + d.velocities.tobytes()
                                       + np.array([d.epsilon, d.velocity_scale]).tobytes())
        digests["point_index"].update(sc.point_index._starts.astype(np.int64).tobytes()
                                      + sc.point_index._points.tobytes())
        digests["scales"].update(np.array([sc.scale, sc.epsilon_floor]).tobytes())
    return {name: h.hexdigest() for name, h in digests.items()}


# sha256 of what set-up builds for the benchmark's track-obstacle scenarios
# (the default obstacle corpus, select_scenarios(33, 16, 1)), recorded before
# the Frechet pairs went in equal blocks and the per-trajectory and per-tree
# facts were cached. Any drift in the matrix, a tree, a leaf's samples or
# scale, the point index, the bounding box or the mean spacing shows here.
GOLDEN_SET_UP_SHA256 = {
    "trees": "d81ba2e4721bfbf7fc59ffa8575ed617a77bd6c4d0477c86164ffad8557a5d30",
    "dynamics": "1aa1884023b123382e5e821a648af394d648cb881b04cb4e5abee79a88249ba0",
    "point_index": "db656618dc10499a6142648709987eb494455fbc396c77958f2d1a733f8a532a",
    "scales": "f82ed1ba17ac523ce4508b727db921b744a7570368b97684e9deb9a9fdfbc0ed",
}


def test_obstacle_set_up_matches_golden():
    corpus = evaluation.load_corpus(ExperimentConfig(corpus_kind="obstacle"))
    full = distance_matrix(corpus)
    picks = evaluation.select_scenarios(len(corpus), 16, 1)
    assert len(corpus) == 33 and len(picks) == 16
    scenarios = [build_scenario(corpus, i, full_matrix=full, index=i) for i in picks]
    assert set_up_digests(scenarios) == GOLDEN_SET_UP_SHA256


def test_filter_args_share_the_scenario_samples_and_leaf_starts(fixed_corpus):
    scenario = build_scenario(fixed_corpus, truth_index=1, index=1)
    assert "leaf_starts" not in vars(scenario)  # not made at set-up
    a = filter_args(scenario, RunParams(kappa=0.3), 1)
    b = filter_args(scenario, RunParams(kappa=0.1), 2)
    assert a[2] is b[2] is scenario.leaf_starts
    expected = start_points(scenario.tree, scenario.corpus)
    assert list(a[2]) == list(expected)
    assert all(np.array_equal(a[2][c], expected[c]) for c in expected)
    for (dynamics, *_), kappa in ((a, 0.3), (b, 0.1)):
        assert list(dynamics) == list(scenario.dynamics_base)
        for nid, d in dynamics.items():
            base = scenario.dynamics_base[nid]
            assert d.kappa == kappa and base.kappa == 0.0
            assert d.positions is base.positions and d.velocities is base.velocities


def test_bl2_builds_no_leaf_copies(monkeypatch, fixed_corpus):
    scenario = build_scenario(fixed_corpus, truth_index=1, index=1)
    params = RunParams(kappa=0.2, psi=0.01)
    expected = run_bl2(scenario, params, seed=5, repeat=0)

    def no_leaf_copies(*args):
        raise AssertionError("BL2 reads no leaf dynamics")

    monkeypatch.setattr(evaluation, "filter_args", no_leaf_copies)
    assert run_bl2(scenario, params, seed=5, repeat=0) == expected


def bl2_class(monkeypatch, scenario, params):
    """The one ClassDynamics that run_bl2 builds for a trial of the scenario."""
    built = []

    class Recording(LeafParticleFilter):
        def __init__(self, class_ids, dynamics, *args):
            built.append(dynamics)
            super().__init__(class_ids, dynamics, *args)

    monkeypatch.setattr(evaluation, "LeafParticleFilter", Recording)
    run_bl2(scenario, params, seed=3, repeat=0)
    (dynamics,) = built
    assert list(dynamics) == [0]
    return dynamics[0]


@pytest.mark.parametrize("kind", ["fixed", "obstacle"])
@pytest.mark.parametrize("floor", [None, 50.0], ids=["default_floor", "floor_above_root"])
def test_bl2_class_equals_the_pooled_root_oracle(monkeypatch, kind, floor):
    corpus = evaluation.load_corpus(ExperimentConfig(corpus_kind=kind, corpus_n=13, n_points=40,
                                                     corpus_seed=11))
    params = RunParams(kappa=0.3, psi=0.02)
    for truth in (2, 9):
        scenario = build_scenario(corpus, truth, epsilon_floor=floor, index=truth)
        tree = scenario.tree
        expected = 2.0 * mean_spacing(scenario.corpus) if floor is None else floor
        assert scenario.epsilon_floor == expected
        # The default floor lies below the root birth, 50 above it.
        assert (scenario.epsilon_floor < tree.root_birth) == (floor is None)
        assert list(scenario.dynamics_base) == tree.leaves()
        got = bl2_class(monkeypatch, scenario, params)
        oracle = reference_pooled_dynamics(tree, scenario.corpus, params.kappa, expected)
        assert np.array_equal(got.positions, oracle.positions)
        assert np.array_equal(got.velocities, oracle.velocities)
        assert (got.epsilon, got.kappa, got.velocity_scale, got.centered_noise) == \
            (oracle.epsilon, oracle.kappa, oracle.velocity_scale, oracle.centered_noise)
        assert got.epsilon == max(tree.root_birth, expected)


def test_bl2_tree_distance_is_root_birth(fixed_corpus):
    scenario = build_scenario(fixed_corpus, truth_index=1, index=1)
    params = RunParams(kappa=0.2, psi=0.01)
    res = run_bl2(scenario, params, seed=5, repeat=0)
    assert all(d == scenario.tree.root_birth for d in res.tree_distance)


def test_bl2_ignores_coarse_observations(fixed_corpus):
    scenario = build_scenario(fixed_corpus, truth_index=1, index=1)
    base = RunParams(kappa=0.2, psi=0.01, coarse_prob=0.0)
    plan = make_observation_plan(scenario, base, 5, 0)
    level = scenario.tree.root_birth
    noisy = [list(obs) + [CoarseObservation(scenario.tree.root, level)] for obs in plan]
    res_a = run_bl2(scenario, base, 5, 0, plan=plan)
    res_b = run_bl2(scenario, base, 5, 0, plan=noisy)
    assert res_a.mse == res_b.mse


def test_bl2_zero_noise_tracks_corpus_trajectory(fixed_corpus):
    # With zero noise every pooled particle starts on the shared start point
    # and the coincident-sample rule makes it follow the first member
    # trajectory; choosing that trajectory as truth gives exact tracking.
    scenario = build_scenario(fixed_corpus, truth_index=0, holdout=False, index=0)
    params = RunParams(kappa=0.0, psi=0.0, depletion=0.0)
    res = run_bl2(scenario, params, seed=6, repeat=0)
    assert max(res.mse) < 1e-12


# sha256 of the BL1 and BL2 rows of one held-out fixed-corpus trial, recorded
# when each filter step began to draw from one (PHASE_PREDICT, t) stream.
# BL2 runs every step through the pooled root's dense block (one batch
# with a coincident start sample, the rest all-regular); BL1's leaf classes
# mix regular, coincident and off-manifold rows. Any drift in the kernel, in
# BL1's class masses or in a stream shows here.
GOLDEN_BASELINE_RUN_SHA256 = "351cf545e1b2a3398f0b3ebd0da9cae86cb5e9b2d5a4bfcccf9fc91f4ba7345f"


def test_baseline_runs_match_golden(fixed_corpus):
    scenario = build_scenario(fixed_corpus, truth_index=5, index=5)
    params = RunParams(kappa=0.3, psi=0.02, coarse_prob=0.5)
    plan = make_observation_plan(scenario, params, 2024, 0)
    digest = hashlib.sha256()
    for runner in (run_bl1, run_bl2):
        res = runner(scenario, params, 2024, 0, plan=plan)
        digest.update(json.dumps([res.mse, res.tree_distance, res.convergence_step]).encode()
                      + b"\n")
    assert digest.hexdigest() == GOLDEN_BASELINE_RUN_SHA256


def smoke_config(**overrides):
    base = dict(corpus_kind="fixed", corpus_n=13, n_points=40, corpus_seed=3,
                n_scenarios=2, n_repeats=2, seed=21, kappas=(0.3,), psis=(0.02,),
                mode="mixed", coarse_prob=0.5, n_particles=50, workers=1)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_smoke_schema(tmp_path):
    cfg = smoke_config()
    raw, summary = run_experiment(cfg)
    assert len(raw) == 2 * 2 * 3 * 39  # scenarios x repeats x filters x steps
    assert set(raw[0]) == set(RAW_FIELDS)
    kinds = {r["filter"] for r in summary}
    assert kinds == {"mhpf", "bl1", "bl2"}
    mhpf_row = next(r for r in summary if r["filter"] == "mhpf")
    assert isinstance(mhpf_row["p_mse_vs_bl1"], float)
    raw_path = tmp_path / "raw.csv"
    summary_path = tmp_path / "summary.csv"
    write_csv(raw_path, raw, RAW_FIELDS)
    write_csv(summary_path, summary, SUMMARY_FIELDS)
    header = raw_path.read_text().splitlines()[0]
    assert header == ",".join(RAW_FIELDS)
    assert summary_path.read_text().splitlines()[0] == ",".join(SUMMARY_FIELDS)


def test_summary_rederivable_from_raw_csv(tmp_path):
    cfg = smoke_config(n_scenarios=2, n_repeats=1)
    raw, summary = run_experiment(cfg)
    path = tmp_path / "raw.csv"
    write_csv(path, raw, RAW_FIELDS)
    reparsed = parse_raw_rows(read_csv(path))
    assert summarize(reparsed) == summary


RAW_CSV_ROW = {"mode": "mixed", "kappa": "0.3", "psi": "0.02", "lead_in": "0.0",
               "scenario": "1", "repeat": "0", "filter": "mhpf", "step": "3", "mse": "0.5",
               "tree_distance": "1.0", "root_birth": "4.0"}


def test_parse_raw_rows_names_a_missing_column():
    rows = [dict(RAW_CSV_ROW) for _ in range(3)]
    del rows[2]["kappa"]
    with pytest.raises(InvalidInputError, match="raw row 2: missing column 'kappa'"):
        parse_raw_rows(rows)


def test_parse_raw_rows_names_a_short_row(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(",".join(RAW_FIELDS) + "\nmixed,0.3,0.02\n")
    with pytest.raises(InvalidInputError, match="raw row 0: missing column 'lead_in'"):
        parse_raw_rows(read_csv(path))


@pytest.mark.parametrize("col, value, kind", [
    ("psi", "x", "float"), ("scenario", "1.5", "int"), ("mse", "", "float")])
def test_parse_raw_rows_names_a_value_of_the_wrong_type(col, value, kind):
    rows = [dict(RAW_CSV_ROW) for _ in range(3)]
    rows[1][col] = value
    with pytest.raises(InvalidInputError,
                       match=f"raw row 1: column '{col}': cannot read '{value}' as {kind}"):
        parse_raw_rows(rows)


def ranksum_pairs():
    """Seeded sample pairs of sizes 2 to 30: normal, tie-heavy integer, with ±inf."""
    rng = np.random.default_rng(1401)
    for i in range(2400):
        n1, n2 = rng.integers(2, 31, size=2)
        if i % 2:
            x, y = rng.integers(0, 4, n1).astype(float), rng.integers(0, 4, n2).astype(float)
        else:
            x, y = rng.normal(size=n1), rng.normal(size=n2)
        if i % 5 == 0:
            x[rng.integers(n1)] = rng.choice([-np.inf, np.inf])
        if i % 7 == 0:
            y[rng.integers(n2)] = rng.choice([-np.inf, np.inf])
        yield x, y


def test_ranksum_p_matches_scipy_bit_for_bit():
    for x, y in ranksum_pairs():
        assert ranksum_p(x, y) == float(ranksums(x, y).pvalue), (x, y)
        assert ranksum_p(list(x), list(y)) == ranksum_p(x, y)


@pytest.mark.parametrize("x, y", [
    ([2.0, 2.0], [2.0, 2.0, 2.0]), ([-1.5] * 30, [-1.5] * 30),
    ([np.inf, np.inf], [np.inf]), ([-np.inf] * 3, [-np.inf, -np.inf])])
def test_ranksum_p_is_one_on_all_equal_samples(x, y):
    assert ranksum_p(x, y) == 1.0 == float(ranksums(x, y).pvalue)


@pytest.mark.parametrize("x, y", [
    ([np.nan, 1.0, 2.0], [3.0, 4.0]), ([1.0, 2.0], [3.0, np.nan]),
    ([np.nan, np.nan], [np.nan, np.nan]), ([np.nan, np.inf], [1.0, 1.0])])
def test_ranksum_p_propagates_nan(x, y):
    assert math.isnan(ranksum_p(x, y))
    assert math.isnan(float(ranksums(x, y).pvalue))


@pytest.mark.parametrize("overrides, message", [
    ({"epsilon_floor": math.nan}, "epsilon_floor must be finite and > 0"),
    ({"epsilon_floor": 0.0}, "epsilon_floor must be finite and > 0"),
    ({"n_particles": 0}, "need at least one particle"),
    ({"depletion": 1.5}, r"depletion fraction must be in \[0, 1\)"),
    ({"kappas": (-0.3,)}, "kappa must be finite and >= 0"),
    ({"psis": (-1.0,)}, "psi must be finite and >= 0"),
    ({"psis": (math.nan,)}, "psi must be finite and >= 0"),
    ({"coarse_prob": 2.0}, r"coarse_prob must be in \[0, 1\]"),
    ({"mode": "lead_in", "lead_in_fractions": (0.5, 1.5)}, "lead_in_fraction must be in"),
    ({"mode": "bogus"}, "unknown observation mode 'bogus'"),
    ({"eval_level": -1.0}, "eval_level must be finite and >= 0"),
    ({"coarse_level": -1.0}, "coarse_level must be finite and >= 0"),
    ({"eval_level": math.inf}, "eval_level must be finite and >= 0"),
    ({"n_particles": 2.5}, "particle count must be a whole number"),
    ({"depletion": "0.1"}, r"depletion fraction must be in \[0, 1\)"),
    ({"seed": -1}, "seed must be a whole number >= 0 or a SeedSequence, got -1"),
    ({"corpus_seed": 1.5}, "seed must be a whole number >= 0 or a SeedSequence, got 1.5"),
])
def test_run_experiment_checks_config_before_building_the_corpus(monkeypatch, overrides,
                                                                 message):
    def never(*args, **kwargs):
        raise AssertionError("the config check must run before the corpus is built")
    monkeypatch.setattr(evaluation, "load_corpus", never)
    monkeypatch.setattr(evaluation, "distance_matrix", never)
    with pytest.raises(InvalidInputError, match=message):
        run_experiment(smoke_config(**overrides))


def test_run_experiment_deterministic_across_workers():
    cfg = smoke_config(n_scenarios=2, n_repeats=1)
    raw_1, summary_1 = run_experiment(cfg)
    cfg2 = smoke_config(n_scenarios=2, n_repeats=1, workers=2)
    raw_2, summary_2 = run_experiment(cfg2)
    assert raw_1 == raw_2
    assert summary_1 == summary_2
