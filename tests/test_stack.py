import hashlib
import json
import warnings

import numpy as np
import pytest
from scipy.stats import chisquare

import mhpf.stack
from mhpf.dynamics import ClassDynamics, build_dynamics
from mhpf.errors import InvalidInputError
from mhpf.evaluation import mean_spacing
from mhpf.filtration import ClusterTree, single_linkage
from mhpf.geometry import Trajectory, distance_matrix
from mhpf.obsgen import ClassPointIndex, bbox_diagonal, gen_coarse, gen_fine
from mhpf.seeding import PHASE_OBSERVE, child_seed, substream
from mhpf.stack import (CoarseObservation, FilterStack, FineObservation, LeafParticleFilter,
                        bounded_log_weights, check_consistency, split_counts,
                        start_points)

from helpers import (ReferenceLeafFilter, apply_observation, random_corpus, reference_leaf_masses,
                     reference_rebuild, start_sampler)

N = 100


def hand_trajectories():
    return [
        Trajectory("0", np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])),
        Trajectory("1", np.array([[0.0, 0.5], [1.0, 0.5], [2.0, 0.5]])),
        Trajectory("2", np.array([[0.0, 3.0], [1.0, 3.0], [2.0, 3.0]])),
    ]


@pytest.fixture
def hand_stack(hand_tree):
    trajs = hand_trajectories()
    dyn = build_dynamics(hand_tree, trajs, kappa=0.0, epsilon_floor=0.5)
    prior = {c: 1.0 / 3.0 for c in hand_tree.leaves()}
    return FilterStack(hand_tree, dyn, prior, start_points(hand_tree, trajs),
                       N, 0.01, seed=123)


def rebuild_from_leaves(stack):
    stack.rebuild_tree(stack.tree.partition(stack.tree.leaves()), stack.leaf_weights)


def force_counts(stack, counts):
    """Overwrite particle labels with exact per-leaf counts and re-derive state."""
    labels = np.concatenate([np.full(k, leaf, dtype=int) for leaf, k in counts.items()])
    assert len(labels) == stack.n_particles
    stack.leaf_labels = labels
    stack.leaf_weights = np.full(stack.n_particles, 1.0 / stack.n_particles)
    rebuild_from_leaves(stack)
    stack._prev_masses = stack._masses


def under(stack, node_ids):
    """(class, particle) mask: the particle's leaf class lies under the class."""
    tree = stack.tree
    cols = np.searchsorted(tree.leaves(), stack.leaf_labels)
    return tree.membership[[tree.row(c) for c in node_ids]][:, cols]


def test_init_uniform_prior_counts_and_weights(hand_stack):
    counts = {c: int((hand_stack.leaf_labels == c).sum()) for c in [0, 1, 2]}
    assert sum(counts.values()) == N
    assert np.all(hand_stack.leaf_weights == 1.0 / N)
    check_consistency(hand_stack)


def test_init_concentrated_prior(hand_tree):
    trajs = hand_trajectories()
    dyn = build_dynamics(hand_tree, trajs, kappa=0.0, epsilon_floor=0.5)
    stack = FilterStack(hand_tree, dyn, {1: 1.0}, start_points(hand_tree, trajs),
                        N, 0.0, seed=5)
    assert stack.class_probs[1] == 1.0
    assert stack.class_probs[3] == 1.0
    assert stack.class_probs[stack.tree.root] == 1.0
    assert stack.class_probs[0] == 0.0
    assert stack.class_probs[2] == 0.0


def test_init_rejects_repeated_class_ids(hand_tree):
    # Without the check, [0, 0, 1] drew class 0 twice as often and left class_probs
    # naming 0.0 for it.
    dyn = both_filters(hand_tree)[1](UNIFORM_PRIOR, N).dynamics
    with pytest.raises(InvalidInputError, match="repeated class id 0"):
        LeafParticleFilter([0, 0, 1], dyn, {0: 1.0, 1: 1.0},
                           start_points(hand_tree, hand_trajectories()), N, 0.01, 5)


def test_init_rejects_non_leaf_prior(hand_tree):
    trajs = hand_trajectories()
    dyn = build_dynamics(hand_tree, trajs, kappa=0.0, epsilon_floor=0.5)
    with pytest.raises(InvalidInputError):
        FilterStack(hand_tree, dyn, {3: 1.0}, start_points(hand_tree, trajs),
                    N, 0.0, seed=5)


def both_filters(hand_tree):
    """FilterStack and LeafParticleFilter on the hand tree's leaves, as functions
    of (prior, particle count)."""
    trajs = hand_trajectories()
    leaves = hand_tree.leaves()
    dyn = build_dynamics(hand_tree, trajs, kappa=0.5, epsilon_floor=0.5)
    starts = start_points(hand_tree, trajs)
    return [lambda prior, n: FilterStack(hand_tree, dyn, prior, starts, n, 0.01, seed=5),
            lambda prior, n: LeafParticleFilter(leaves, {c: dyn[c] for c in leaves}, prior,
                                                starts, n, 0.01, 5)]


UNIFORM_PRIOR = {0: 1.0, 1: 1.0, 2: 1.0}


@pytest.mark.parametrize("prior, message", [
    ({0: 2.0, 1: -1.0}, "class 1 must be a finite number >= 0"),
    ({0: np.nan}, "class 0 must be a finite number >= 0"),
    ({0: np.inf}, "class 0 must be a finite number >= 0"),
    ({0: "x"}, "class 0 must be a finite number >= 0"),
    ({0: None}, "class 0 must be a finite number >= 0"),
    ({0: 0.0}, "finite total > 0"),
    ({0: 1e308, 1: 1e308}, "finite total > 0"),
    ({3: 1.0}, "class 3, not one of the filter's classes"),
])
def test_init_rejects_bad_prior_in_both_filters(hand_tree, prior, message):
    for make in both_filters(hand_tree):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=message):
                make(prior, N)


@pytest.mark.parametrize("n_particles, message", [
    (2.5, "whole number"), ("3", "whole number"), (np.nan, "whole number"),
    (None, "whole number"), (0, "at least one particle"), (-2.0, "at least one particle"),
])
def test_init_rejects_bad_particle_count_in_both_filters(hand_tree, n_particles, message):
    for make in both_filters(hand_tree):
        with pytest.raises(InvalidInputError, match=message):
            make(UNIFORM_PRIOR, n_particles)


def both_filters_over(hand_tree, dyn, starts, seed=5):
    """FilterStack and LeafParticleFilter on the hand tree's leaves with a uniform
    prior, as functions of nothing."""
    return [lambda: FilterStack(hand_tree, dyn, UNIFORM_PRIOR, starts, N, 0.01, seed),
            lambda: LeafParticleFilter(hand_tree.leaves(), dyn, UNIFORM_PRIOR, starts, N, 0.01,
                                       seed)]


@pytest.mark.parametrize("edit, message", [
    (lambda dyn, starts: dyn.pop(1), "class 1 has no dynamics"),
    (lambda dyn, starts: starts.pop(2), "class 2 has no start point"),
    (lambda dyn, starts: starts.update({0: np.array([np.nan, 0.0])}),
     "class 0: start point must be 2 finite coordinates"),
    (lambda dyn, starts: starts.update({0: np.array([0.0, np.inf])}),
     "class 0: start point must be 2 finite coordinates"),
    (lambda dyn, starts: starts.update({0: np.zeros(3)}),
     "class 0: start point must be 2 finite coordinates"),
], ids=["no_dynamics", "no_start_point", "nan_start_point", "inf_start_point",
        "3d_start_point"])
def test_init_rejects_missing_dynamics_or_bad_start_point_in_both_filters(hand_tree, edit,
                                                                         message):
    # Without the check, a class without dynamics failed in the first step
    # with a raw KeyError, after the step counter had moved.
    trajs = hand_trajectories()
    dyn = build_dynamics(hand_tree, trajs, kappa=0.5, epsilon_floor=0.5)
    starts = start_points(hand_tree, trajs)
    edit(dyn, starts)
    for make in both_filters_over(hand_tree, dyn, starts):
        with pytest.raises(InvalidInputError, match=message):
            make()


@pytest.mark.parametrize("make, message", [
    (lambda tree, dyn, starts: FilterStack(tree, dyn, UNIFORM_PRIOR, {**starts, 0: "x"}, N,
                                           0.01, 5),
     "class 0: start point must be 2 finite coordinates"),
    (lambda tree, dyn, starts: LeafParticleFilter(tree.leaves(), {**dyn, 1: "fast"},
                                                  UNIFORM_PRIOR, starts, N, 0.01, 5),
     "class 1: dynamics must be a ClassDynamics, got str"),
    (lambda tree, dyn, starts: ClassDynamics(3, [0.0, 1.0], np.zeros((2, 2)), 1.0, 0.0, 1.0),
     "class 3: malformed sample arrays"),
    (lambda tree, dyn, starts: ClassDynamics(3, np.array([["a", "b"]]), np.zeros((1, 2)), 1.0,
                                             0.0, 1.0),
     "class 3: positions must be an array of numbers"),
], ids=["string_start_point", "dynamics_not_class_dynamics", "list_positions",
        "string_positions"])
def test_construction_names_the_class_of_a_malformed_input(hand_tree, make, message):
    # These raised numpy's ValueError or TypeError, or AttributeError.
    trajs = hand_trajectories()
    with pytest.raises(InvalidInputError, match=message):
        make(hand_tree, build_dynamics(hand_tree, trajs, kappa=0.5, epsilon_floor=0.5),
             start_points(hand_tree, trajs))


@pytest.mark.parametrize("seed", [1.5, -1, "1", None, np.float64(2.0)])
def test_init_rejects_a_seed_that_is_not_a_whole_number_in_both_filters(hand_tree, seed):
    # Without the check, seed 1.5 silently ran seed 1.
    trajs = hand_trajectories()
    dyn = build_dynamics(hand_tree, trajs, kappa=0.5, epsilon_floor=0.5)
    starts = start_points(hand_tree, trajs)
    for make in both_filters_over(hand_tree, dyn, starts, seed):
        with pytest.raises(InvalidInputError, match="seed must be a whole number >= 0"):
            make()


def test_numpy_integer_seed_matches_int(hand_tree):
    trajs = hand_trajectories()
    dyn = build_dynamics(hand_tree, trajs, kappa=0.5, epsilon_floor=0.5)
    starts = start_points(hand_tree, trajs)
    obs = [FineObservation(np.array([1.0, 0.2]))]
    for a, b in zip(both_filters_over(hand_tree, dyn, starts, np.int64(5)),
                    both_filters_over(hand_tree, dyn, starts, 5)):
        assert a().step(obs) == b().step(obs)


def test_whole_float_particle_count_matches_int(hand_tree):
    obs = [FineObservation(np.array([1.0, 0.2]))]
    for make in both_filters(hand_tree):
        a, b = make(UNIFORM_PRIOR, 100.0), make(UNIFORM_PRIOR, 100)
        assert a.n_particles == b.n_particles == 100
        assert a.step(obs) == b.step(obs)


def test_rebuild_unchanged_weights_is_fixed_point(hand_stack):
    before = dict(hand_stack.class_probs)
    rebuild_from_leaves(hand_stack)
    assert hand_stack.class_probs == before


def test_rebuild_two_leaf_additivity():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    tree = single_linkage(d)
    trajs = [Trajectory("0", np.array([[0.0, 0.0], [1.0, 0.0]])),
             Trajectory("1", np.array([[0.0, 1.0], [1.0, 1.0]]))]
    dyn = build_dynamics(tree, trajs, kappa=0.0, epsilon_floor=0.5)
    stack = FilterStack(tree, dyn, {0: 0.5, 1: 0.5}, start_points(tree, trajs),
                        4, 0.0, seed=1)
    force_counts(stack, {0: 2, 1: 2})
    stack.leaf_weights = np.array([0.375, 0.375, 0.125, 0.125])
    rebuild_from_leaves(stack)
    assert stack.class_probs[0] == pytest.approx(0.75)
    assert stack.class_probs[1] == pytest.approx(0.25)
    assert stack.class_probs[tree.root] == pytest.approx(1.0)


def test_rebuild_middle_level_hand_computed(hand_stack):
    stack = hand_stack
    force_counts(stack, {0: 50, 1: 30, 2: 20})
    assert stack.class_probs[3] == pytest.approx(0.8)
    w = np.full(N, 0.02)
    w[stack.leaf_labels == 2] = 0.01
    stack.rebuild_tree(stack.tree.partition({3, 2}), w)
    assert stack.class_probs[3] == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert stack.class_probs[2] == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert stack.class_probs[0] == pytest.approx(5.0 / 9.0, abs=1e-12)
    assert stack.class_probs[1] == pytest.approx(3.0 / 9.0, abs=1e-12)
    assert stack.class_probs[4] == pytest.approx(1.0, abs=1e-12)


def test_rebuild_zero_prev_parent_splits_uniformly(hand_stack):
    stack = hand_stack
    force_counts(stack, {0: 0, 1: 0, 2: N})
    assert stack.class_probs[3] == stack.prev_probs[3] == 0.0
    # Pushing fresh mass through an exhausted parent has no conditional to
    # scale, so the children split it evenly.
    # Half the particles move under node 3 (all into leaf 0) before the update.
    labels = stack.leaf_labels.copy()
    labels[:N // 2] = 0
    stack.leaf_labels = labels
    stack.rebuild_tree(stack.tree.partition({3, 2}), np.full(N, 1.0 / N))
    assert stack.class_probs[3] == pytest.approx(0.5)
    assert stack.class_probs[0] == pytest.approx(0.25)
    assert stack.class_probs[1] == pytest.approx(0.25)


def test_internal_nodes_hold_all_particles_of_one_leaf(hand_stack):
    force_counts(hand_stack, {0: N, 1: 0, 2: 0})
    assert under(hand_stack, [3, 4, 2]).sum(axis=1).tolist() == [N, N, 0]


def assert_nodes_hold_leaf_particles(stack):
    """Every node holds the particles of the leaves under it, and each level all N once."""
    tree = stack.tree
    nodes = sorted(tree.nodes)
    for nid, mask in zip(nodes, under(stack, nodes)):
        leaves, todo = set(), [nid]  # oracle: walk the children down to the leaves
        while todo:
            node = tree.nodes[todo.pop()]
            todo.extend(node.children)
            if node.is_leaf:
                leaves.add(node.id)
        assert np.array_equal(mask, np.isin(stack.leaf_labels, sorted(leaves)))
    for b in tree.unique_births():
        part = tree.partition(tree.alive_ids(b))
        held = under(stack, part.ids)
        assert np.all(held.sum(axis=0) == 1)
        cls = part.leaf_class[np.searchsorted(tree.leaves(), stack.leaf_labels)]
        assert np.array_equal(held.argmax(axis=0), cls)


def test_particles_of_internal_node_is_leaf_particles_under_it(fixed_corpus, fixed_tree):
    dyn = build_dynamics(fixed_tree, fixed_corpus, kappa=0.4,
                         epsilon_floor=2 * mean_spacing(fixed_corpus))
    prior = {c: 1.0 / fixed_tree.leaf_count for c in fixed_tree.leaves()}
    stack = FilterStack(fixed_tree, dyn, prior, start_points(fixed_tree, fixed_corpus),
                        N, 0.01, seed=21)
    level = fixed_tree.unique_births()[3]
    cls = sorted(fixed_tree.alive_at(level))[0]
    truth = fixed_corpus[2].points
    stack.step([FineObservation(truth[1]), CoarseObservation(cls, level)])
    assert_nodes_hold_leaf_particles(stack)
    # Mid-step: after prediction and an update, before resampling.
    stack._t += 1
    stack._prev_masses = stack._masses
    stack.predict()
    apply_observation(stack, FineObservation(truth[2]))
    assert not np.all(stack.leaf_weights == stack.leaf_weights[0])
    assert_nodes_hold_leaf_particles(stack)
    apply_observation(stack, CoarseObservation(cls, level))
    assert_nodes_hold_leaf_particles(stack)


def test_chain_tree_every_level_holds_n():
    pts = [0.0, 1.0, 3.0, 7.0, 15.0]
    trajs = [Trajectory(str(i), np.array([[x, 0.0], [x + 0.5, 0.0]]))
             for i, x in enumerate(pts)]
    d = distance_matrix(trajs)
    tree = single_linkage(d, member_ids=[t.id for t in trajs])
    dyn = build_dynamics(tree, trajs, kappa=0.0, epsilon_floor=0.2)
    prior = {c: 1.0 / 5.0 for c in tree.leaves()}
    stack = FilterStack(tree, dyn, prior, start_points(tree, trajs), N, 0.0, seed=3)
    for b in tree.unique_births():
        assert under(stack, tree.alive_ids(b)).sum() == N
    check_consistency(stack)


def test_predict_preserves_labels(hand_stack):
    before = hand_stack.leaf_labels.copy()
    hand_stack._t = 1
    hand_stack.predict()
    assert np.array_equal(hand_stack.leaf_labels, before)


def test_predict_kappa_zero_moves_along_trajectory(hand_tree):
    trajs = hand_trajectories()
    dyn = build_dynamics(hand_tree, trajs, kappa=0.0, epsilon_floor=0.5)
    stack = FilterStack(hand_tree, dyn, {0: 1.0}, start_points(hand_tree, trajs),
                        1, 0.0, seed=2)
    assert np.array_equal(stack.leaf_positions[0], [0.0, 0.0])
    stack._t = 1
    stack.predict()
    assert np.array_equal(stack.leaf_positions[0], [1.0, 0.0])


def test_step_bit_identical_across_runs(hand_tree):
    trajs = hand_trajectories()

    def run():
        dyn = build_dynamics(hand_tree, trajs, kappa=0.5, epsilon_floor=0.5)
        prior = {c: 1.0 / 3.0 for c in hand_tree.leaves()}
        stack = FilterStack(hand_tree, dyn, prior, start_points(hand_tree, trajs),
                            N, 0.01, seed=77)
        obs = [
            [FineObservation(np.array([1.0, 0.2]))],
            [CoarseObservation(3, 1.5)],
            [],
            [FineObservation(np.array([2.0, 0.4])), CoarseObservation(3, 1.5)],
        ]
        snaps = [stack.step(o) for o in obs]
        return stack, snaps

    s1, snaps1 = run()
    s2, snaps2 = run()
    assert np.array_equal(s1.leaf_positions, s2.leaf_positions)
    assert np.array_equal(s1.leaf_labels, s2.leaf_labels)
    assert snaps1 == snaps2


def test_fine_update_nearest_particle_wins(hand_stack):
    stack = hand_stack
    force_counts(stack, {0: 50, 1: 30, 2: 20})
    target = stack.leaf_positions[7].copy()
    stack.leaf_positions += np.linspace(0, 5, N)[:, None]  # spread everyone out
    stack.leaf_positions[7] = target
    apply_observation(stack, FineObservation(target))
    assert np.argmax(stack.leaf_weights) == 7


def test_fine_update_all_equidistant_resets_uniform(hand_stack):
    stack = hand_stack
    stack.leaf_positions = np.zeros_like(stack.leaf_positions)
    before = stack.diagnostics["uniform_resets"]
    apply_observation(stack, FineObservation(np.array([3.0, 4.0])))
    assert stack.diagnostics["uniform_resets"] == before + 1
    assert np.all(stack.leaf_weights == 1.0 / N)


def test_coarse_update_equal_weights_within_class(hand_stack):
    stack = hand_stack
    force_counts(stack, {0: 50, 1: 30, 2: 20})
    apply_observation(stack, CoarseObservation(3, 1.5))
    w3 = stack.leaf_weights[under(stack, [3])[0]].tolist()
    assert len(w3) == 80
    assert len(set(w3)) == 1
    assert w3[0] > 0


def test_coarse_update_observed_class_beats_sibling(hand_stack):
    stack = hand_stack
    force_counts(stack, {0: 50, 1: 30, 2: 20})
    apply_observation(stack, CoarseObservation(3, 1.5))
    in3, in2 = under(stack, [3, 2])
    w3, w2 = stack.leaf_weights[in3], stack.leaf_weights[in2]
    assert len(w2) == 20
    assert np.all(w3[:, None] > w2[None, :])
    # Tree distances: own birth (1.0) for the observed class, root birth (2.0)
    # for the sibling, so the sibling lands on the zero end of the scale.
    assert np.all(w2 == 0.0)
    assert stack.class_probs[2] == 0.0
    assert stack.class_probs[3] == pytest.approx(1.0)
    check_consistency(stack)


def test_coarse_update_scales_leaves_proportionally(hand_stack):
    stack = hand_stack
    force_counts(stack, {0: 50, 1: 30, 2: 20})
    apply_observation(stack, CoarseObservation(3, 1.5))
    assert stack.class_probs[0] == pytest.approx(0.5 / 0.8, abs=1e-12)
    assert stack.class_probs[1] == pytest.approx(0.3 / 0.8, abs=1e-12)
    # Within-class leaf weights stay equal after the ratio scaling.
    w0 = stack.leaf_weights[stack.leaf_labels == 0]
    w1 = stack.leaf_weights[stack.leaf_labels == 1]
    assert len(set(w0.tolist())) == 1
    assert len(set(w1.tolist())) == 1
    assert w0[0] == pytest.approx(w1[0])


def test_coarse_at_root_level_preserves_leaf_ratio():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    tree = single_linkage(d)
    trajs = [Trajectory("0", np.array([[0.0, 0.0], [1.0, 0.0]])),
             Trajectory("1", np.array([[0.0, 1.0], [1.0, 1.0]]))]
    dyn = build_dynamics(tree, trajs, kappa=0.0, epsilon_floor=0.5)
    stack = FilterStack(tree, dyn, {0: 0.5, 1: 0.5}, start_points(tree, trajs),
                        4, 0.0, seed=1)
    force_counts(stack, {0: 2, 1: 2})
    stack.leaf_weights = np.array([0.375, 0.375, 0.125, 0.125])
    rebuild_from_leaves(stack)
    stack._prev_masses = stack._masses
    before = dict(stack.class_probs)
    resets = stack.diagnostics["uniform_resets"]
    apply_observation(stack, CoarseObservation(tree.root, tree.root_birth))
    # A single alive class carries no information: uniform reset, ratios kept.
    assert stack.diagnostics["uniform_resets"] == resets + 1
    assert stack.class_probs[0] == pytest.approx(before[0])
    assert stack.class_probs[1] == pytest.approx(before[1])
    ratio = stack.leaf_weights[0] / stack.leaf_weights[2]
    assert ratio == pytest.approx(3.0)


def test_coarse_dead_class_rejected(hand_stack):
    with pytest.raises(InvalidInputError):
        apply_observation(hand_stack, CoarseObservation(0, 1.5))  # leaf 0 dead at 1.5


def test_resample_one_hot_weight_copies_winner(hand_stack):
    stack = hand_stack
    stack.depletion = 0.0
    stack.leaf_weights = np.zeros(N)
    stack.leaf_weights[12] = 1.0
    winner_pos = stack.leaf_positions[12].copy()
    winner_cls = stack.leaf_labels[12]
    stack.resample()
    assert np.all(stack.leaf_labels == winner_cls)
    assert np.all(stack.leaf_positions == winner_pos)
    assert np.all(stack.leaf_weights == 1.0 / N)


def test_split_counts_paper_case():
    assert split_counts(100, 0.01) == (99, 1)
    assert split_counts(100, 0.0) == (100, 0)
    assert split_counts(10, 0.5) == (5, 5)


def test_resample_preserves_distribution_chi_square(hand_stack):
    stack = hand_stack
    stack.depletion = 0.0
    force_counts(stack, {0: 50, 1: 30, 2: 20})
    saved = (stack.leaf_positions.copy(), stack.leaf_labels.copy(), stack.leaf_weights.copy())
    totals = {0: 0, 1: 0, 2: 0}
    reps = 1000
    for rep in range(reps):
        stack._t = rep + 1  # fresh resampling substream per repeat
        stack.leaf_positions, stack.leaf_labels, stack.leaf_weights = (
            saved[0].copy(), saved[1].copy(), saved[2].copy())
        stack.resample()
        for c in totals:
            totals[c] += int((stack.leaf_labels == c).sum())
    expected = np.array([0.5, 0.3, 0.2]) * N * reps
    observed = np.array([totals[0], totals[1], totals[2]])
    assert chisquare(observed, expected).pvalue > 1e-3


def test_map_class_ties_and_argmax(hand_stack):
    force_counts(hand_stack, {0: 40, 1: 40, 2: 20})
    assert hand_stack.map_class(0.0) == 0  # tie between 0 and 1 -> smaller id
    force_counts(hand_stack, {0: 10, 1: 30, 2: 60})
    assert hand_stack.map_class(0.0) == 2
    assert hand_stack.map_class(1.5) == 2  # node 3 holds 0.4 < 0.6
    assert hand_stack.map_class(10.0) == hand_stack.tree.root
    for b in (np.inf, np.nan):
        with pytest.raises(InvalidInputError, match="no class is alive at level"):
            hand_stack.map_class(b)
        with pytest.raises(InvalidInputError, match="no class is alive at level"):
            hand_stack.snapshot([b])


def test_point_estimate_formulas(hand_stack):
    stack = hand_stack
    stack.leaf_positions = np.zeros_like(stack.leaf_positions)
    stack.leaf_positions[0] = [2.0, 0.0]
    stack.leaf_weights = np.zeros(N)
    stack.leaf_weights[0] = 0.5
    stack.leaf_weights[1] = 0.5
    assert np.allclose(stack.point_estimate(), [1.0, 0.0])
    rng = np.random.default_rng(55)
    stack.leaf_positions = rng.normal(size=(N, 2))
    w = rng.uniform(0.1, 1.0, size=N)
    stack.leaf_weights = w
    expected = (w[:, None] * stack.leaf_positions).sum(0) / w.sum()
    assert np.allclose(stack.point_estimate(), expected, atol=1e-12)


def test_snapshot_schema(hand_stack):
    snap = hand_stack.step([FineObservation(np.array([0.5, 0.1]))])
    assert set(snap) == {"t", "levels", "point_estimate", "map_class"}
    assert snap["t"] == 1
    bs = [lvl["b"] for lvl in snap["levels"]]
    assert bs == sorted(bs)
    for lvl in snap["levels"]:
        total = sum(c["prob"] for c in lvl["classes"])
        assert total == pytest.approx(1.0, abs=1e-9)
    assert len(snap["point_estimate"]) == 2


def test_consistency_over_randomized_steps(hand_stack, hand_tree):
    rng = np.random.default_rng(60)
    stack = hand_stack
    levels = hand_tree.unique_births()
    for _ in range(100):
        obs = []
        if rng.random() < 0.6:
            obs.append(FineObservation(rng.normal(scale=2.0, size=2)))
        if rng.random() < 0.4:
            b = float(rng.choice(levels))
            cls = sorted(hand_tree.alive_at(b))[int(rng.integers(len(hand_tree.alive_at(b))))]
            obs.append(CoarseObservation(cls, b))
        stack.step(obs)
        check_consistency(stack)


def test_consistency_over_random_trees_and_mixed_streams():
    rng = np.random.default_rng(404)
    for trial in range(16):
        corpus = random_corpus(rng, lattice=trial % 2 == 1)
        tree = single_linkage(distance_matrix(corpus), member_ids=[t.id for t in corpus])
        dyn = build_dynamics(tree, corpus, kappa=float(rng.uniform(0.0, 1.0)),
                             epsilon_floor=2 * mean_spacing(corpus))
        stack = FilterStack(tree, dyn, {c: 1.0 for c in tree.leaves()},
                            start_points(tree, corpus), int(rng.integers(5, 60)),
                            float(rng.choice([0.0, 0.05, 0.3])), seed=trial)
        births = tree.unique_births()
        levels = births + [(a + b) / 2 for a, b in zip(births, births[1:])] + [births[-1] + 1.0]
        points = np.vstack([t.points for t in corpus])
        for _ in range(30):
            obs = []
            for _ in range(int(rng.integers(0, 3))):
                if rng.random() < 0.5:
                    z = points[int(rng.integers(len(points)))] + rng.normal(scale=2.0, size=2)
                    obs.append(FineObservation(z))
                else:
                    b = float(rng.choice(levels))
                    alive = tree.alive_ids(b)
                    obs.append(CoarseObservation(alive[int(rng.integers(len(alive)))], b))
            stack.step(obs)
            check_consistency(stack)


def test_bounded_log_weights_shape():
    w = bounded_log_weights(np.array([0.0, 1.0, 3.0]))
    assert w[0] > w[1] > w[2] == 0.0
    assert np.all(w >= 0)
    assert np.all(np.isfinite(w))


def test_particles_at_level(hand_stack):
    alive = hand_stack.tree.alive_ids(1.5)
    assert alive == (2, 3)
    assert np.all(under(hand_stack, alive).sum(axis=0) == 1)


def test_level_weights_normalized_after_updates(hand_stack):
    stack = hand_stack
    force_counts(stack, {0: 50, 1: 30, 2: 20})
    apply_observation(stack, CoarseObservation(3, 1.5))
    for b in (0.0, 1.5, 2.0):
        total = (under(stack, stack.tree.alive_ids(b)) @ stack.leaf_weights).sum()
        assert total == pytest.approx(1.0, abs=1e-9)
    apply_observation(stack, FineObservation(np.array([1.0, 0.1])))
    total = (under(stack, stack.tree.alive_ids(0.0)) @ stack.leaf_weights).sum()
    assert total == pytest.approx(1.0, abs=1e-9)


def test_fine_only_bottom_level_matches_bl1_on_nested_tree(fixed_corpus, fixed_tree):
    corpus = fixed_corpus
    dyn = build_dynamics(fixed_tree, corpus, kappa=0.4, epsilon_floor=2 * mean_spacing(corpus))
    leaves = fixed_tree.leaves()
    prior = {c: 1.0 / len(leaves) for c in leaves}
    starts = start_points(fixed_tree, corpus)
    seed = child_seed(2024, 0, 0)
    stack = FilterStack(fixed_tree, dyn, prior, starts, N, 0.01, seed)
    pf = ReferenceLeafFilter(leaves, {c: dyn[c] for c in leaves}, prior, start_sampler(starts), N,
                             0.01, seed)
    scale = bbox_diagonal(corpus)
    rng = substream(96, PHASE_OBSERVE)
    truth = corpus[6].points
    for t in range(1, len(truth)):
        obs = [gen_fine(truth[t], 0.02, scale, rng)]
        snap_stack = stack.step(obs)
        snap_pf = pf.step(obs)
        assert np.array_equal(stack.leaf_positions, pf.positions)
        assert np.array_equal(stack.leaf_labels, pf.labels)
        assert snap_stack["point_estimate"] == snap_pf["point_estimate"]
        assert np.array_equal(stack.point_estimate(), pf.point_estimate())


BAD_OBSERVATIONS = {
    "nan_position": [FineObservation(np.array([np.nan, 0.0]))],
    "inf_position": [FineObservation(np.array([0.0, np.inf]))],
    "3d_position": [FineObservation(np.array([1.0, 0.0, 0.0]))],
    "scalar_position": [FineObservation(1.0)],
    "dead_class": [CoarseObservation(0, 1.5)],
    "unknown_class": [CoarseObservation(99, 0.0)],
    "negative_level": [CoarseObservation(0, -1.0)],
    "nan_level": [CoarseObservation(3, float("nan"))],
    "not_an_observation": [(1.0, 0.0)],
    "bad_after_good": [FineObservation(np.array([1.0, 0.2])), CoarseObservation(3, 1.5),
                       FineObservation(np.array([np.nan, 0.2]))],
}
BAD_SNAPSHOT_LEVELS = {"negative_snapshot_level": [0.0, -1.0],
                       "infinite_snapshot_level": [0.0, np.inf],
                       "string_snapshot_level": ["a"],
                       "none_snapshot_level": [None],
                       "scalar_snapshot_levels": 5}


def stack_state(stack):
    return (stack.t, stack.leaf_labels.copy(), stack.leaf_positions.copy(),
            stack.leaf_weights.copy(), dict(stack.class_probs), dict(stack.prev_probs),
            dict(stack.diagnostics))


@pytest.mark.parametrize("name", sorted(BAD_OBSERVATIONS) + list(BAD_SNAPSHOT_LEVELS)
                         + ["bad_observation_and_snapshot_level"])
def test_step_rejects_bad_observation_without_changing_state(hand_tree, name):
    trajs = hand_trajectories()

    def make():
        dyn = build_dynamics(hand_tree, trajs, kappa=0.5, epsilon_floor=0.5)
        prior = {c: 1.0 / 3.0 for c in hand_tree.leaves()}
        stack = FilterStack(hand_tree, dyn, prior, start_points(hand_tree, trajs),
                            N, 0.01, seed=31)
        stack.step([FineObservation(np.array([1.0, 0.2])), CoarseObservation(3, 1.5)])
        return stack

    stack, twin = make(), make()
    before = stack_state(stack)
    with pytest.raises(InvalidInputError) as exc:
        if name in BAD_SNAPSHOT_LEVELS:
            stack.step([FineObservation(np.array([1.0, 0.2]))],
                       snapshot_levels=BAD_SNAPSHOT_LEVELS[name])
        elif name == "bad_observation_and_snapshot_level":
            # Observations are checked first, so the observation's error is raised.
            stack.step(BAD_OBSERVATIONS["nan_position"], snapshot_levels=[-1.0])
        else:
            stack.step(BAD_OBSERVATIONS[name])
    if name == "bad_observation_and_snapshot_level":
        assert "fine position" in str(exc.value)
    after = stack_state(stack)
    assert after[0] == before[0] == 1
    for a, b in zip(after[1:4], before[1:4]):
        assert np.array_equal(a, b)
    assert after[4:] == before[4:]
    # The rejected step left no trace: the next step matches a twin that never saw it.
    obs = [FineObservation(np.array([2.0, 0.4]))]
    assert stack.step(obs) == twin.step(obs)
    assert np.array_equal(stack.leaf_positions, twin.leaf_positions)


@pytest.mark.parametrize("name", ["unknown_class", "dead_class", "negative_level"])
def test_flat_step_ignores_coarse_observations(hand_tree, name):
    make_flat = both_filters(hand_tree)[1]
    flat, twin = make_flat(UNIFORM_PRIOR, N), make_flat(UNIFORM_PRIOR, N)
    fine = [FineObservation(np.array([1.0, 0.2]))]
    assert flat.step(fine + BAD_OBSERVATIONS[name]) == twin.step(fine)
    a, b = filter_state(flat), filter_state(twin)
    assert a[0] == b[0] and a[4:] == b[4:]
    assert all(np.array_equal(x, y) for x, y in zip(a[1:4], b[1:4]))


def filter_state(pf):
    """t, particles, masses, pre-observation masses (the stack's), diagnostics and stream."""
    return (pf.t, pf.leaf_labels.copy(), pf.leaf_positions.copy(), pf.leaf_weights.copy(),
            dict(pf.class_probs), dict(getattr(pf, "prev_probs", {})), dict(pf.diagnostics),
            pf._rng_t)


@pytest.mark.parametrize("where", ["dynamics", "resampling"])
@pytest.mark.parametrize("kind", ["stack", "flat"])
def test_step_that_raises_changes_nothing(monkeypatch, fixed_corpus, fixed_tree, kind, where):
    dyn = build_dynamics(fixed_tree, fixed_corpus, kappa=0.3,
                         epsilon_floor=2 * mean_spacing(fixed_corpus))
    leaves = fixed_tree.leaves()
    prior = {c: 1.0 / len(leaves) for c in leaves}
    starts = start_points(fixed_tree, fixed_corpus)
    make = {"stack": lambda: FilterStack(fixed_tree, dyn, prior, starts, N, 0.05, seed=8),
            "flat": lambda: LeafParticleFilter(leaves, dyn, prior, starts, N, 0.05, 8)}[kind]
    level = fixed_tree.unique_births()[3]
    coarse = CoarseObservation(fixed_tree.alive_ids(level)[0], level)
    truth = fixed_corpus[2].points

    def obs(t):
        return [FineObservation(truth[t]), coarse]

    target, twin = make(), make()
    for t in (1, 2):
        assert target.step(obs(t)) == twin.step(obs(t))
    before = filter_state(target)
    calls = []

    def failing(real, fail_on):
        def call(*args):
            calls.append(1)
            if len(calls) == fail_on:
                raise RuntimeError("step failed")
            return real(*args)
        return call

    if where == "dynamics":
        # The first class advances, drawing from the step's stream; the second fails.
        monkeypatch.setattr(ClassDynamics, "step_batch", failing(ClassDynamics.step_batch, 2))
    else:
        # Prediction and both updates are done; resampling fails.
        monkeypatch.setattr(mhpf.stack, "resample_particles",
                            failing(mhpf.stack.resample_particles, 1))
    with pytest.raises(RuntimeError, match="step failed"):
        target.step(obs(3))
    monkeypatch.undo()
    assert calls
    after = filter_state(target)
    assert after[0] == before[0] == 2
    for a, b in zip(after[1:4], before[1:4]):
        assert np.array_equal(a, b)
    assert after[4:] == before[4:]
    # The retried step draws what a first attempt would, bit for bit.
    assert target.step(obs(3)) == twin.step(obs(3))
    for a, b in zip(filter_state(target)[1:4], filter_state(twin)[1:4]):
        assert a.tobytes() == b.tobytes()
    assert filter_state(target)[4:] == filter_state(twin)[4:]


def test_snapshot_levels_from_a_generator_match_a_list(hand_tree):
    make_stack = both_filters(hand_tree)[0]
    a, b = make_stack(UNIFORM_PRIOR, N), make_stack(UNIFORM_PRIOR, N)
    obs = [FineObservation(np.array([1.0, 0.2]))]
    snap = a.step(obs, snapshot_levels=iter([0.0, 1.5]))
    assert [level["b"] for level in snap["levels"]] == [0.0, 1.5]
    assert snap == b.step(obs, snapshot_levels=[0.0, 1.5])


@pytest.mark.parametrize("name", list(BAD_SNAPSHOT_LEVELS))
def test_snapshot_query_rejects_bad_levels(hand_stack, name):
    # Without the check, ["a"] raised ValueError and a bare 5 raised TypeError.
    with pytest.raises(InvalidInputError, match="snapshot levels"):
        hand_stack.snapshot(BAD_SNAPSHOT_LEVELS[name])


@pytest.mark.parametrize("level", ["a", None, -1.0, np.inf, float("nan"), [0.0]])
def test_map_class_rejects_bad_level(hand_stack, level):
    # Without the check, "a" raised TypeError from the alive-set comparison.
    with pytest.raises(InvalidInputError, match="snapshot levels"):
        hand_stack.map_class(level)


def test_update_rejects_bad_observation(hand_stack):
    before = stack_state(hand_stack)
    for name in ("nan_position", "3d_position", "dead_class"):
        with pytest.raises(InvalidInputError):
            apply_observation(hand_stack, BAD_OBSERVATIONS[name][0])
    after = stack_state(hand_stack)
    for a, b in zip(after[1:4], before[1:4]):
        assert np.array_equal(a, b)
    assert after[4:] == before[4:]


def relabelled(tree, new_ids):
    """The tree with node i renamed new_ids[i]."""
    def rename(n):
        return None if n is None else new_ids[n]

    data = tree.to_dict()
    for rec in data["nodes"]:
        rec["id"], rec["parent"] = rename(rec["id"]), rename(rec["parent"])
        rec["children"] = [rename(c) for c in rec["children"]]
    data["root"] = rename(data["root"])
    return ClusterTree.from_dict(data)


@pytest.mark.parametrize("new_ids", [(5, 7, 9, 10, 11), (5, 7, 9, 1, 0)])
def test_non_contiguous_leaf_ids_step_like_the_original(hand_tree, new_ids):
    # With kappa = 0 the dynamics draw no noise, so the renamed stack must
    # follow the original one step for step.
    trajs = hand_trajectories()

    def make(tree):
        dyn = build_dynamics(tree, trajs, kappa=0.0, epsilon_floor=0.5)
        prior = {c: 1.0 / 3.0 for c in tree.leaves()}
        return FilterStack(tree, dyn, prior, start_points(tree, trajs), N, 0.05, seed=8)

    tree = relabelled(hand_tree, new_ids)
    assert tree.leaves() == [5, 7, 9]
    stack, original = make(tree), make(hand_tree)
    rng = np.random.default_rng(12)
    for t in range(12):
        fine = np.array([0.2 * t, rng.uniform(0.0, 3.0)])
        coarse = [(3, 1.5), (2, 1.5), (0, 0.5), (4, 2.0)][t % 4]
        stack.step([FineObservation(fine), CoarseObservation(new_ids[coarse[0]], coarse[1])])
        original.step([FineObservation(fine), CoarseObservation(*coarse)])
        check_consistency(stack)
        assert np.array_equal(stack.leaf_labels, np.array(new_ids)[original.leaf_labels])
        assert np.array_equal(stack.leaf_positions, original.leaf_positions)
        for nid, p in original.class_probs.items():
            assert stack.class_probs[new_ids[nid]] == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rebuild_rejects_non_finite_weights(hand_stack, bad):
    before = dict(hand_stack.class_probs)
    w = np.full(N, 1.0 / N)
    w[3] = bad
    for level in (hand_stack.tree.leaves(), {3, 2}):
        with pytest.raises(InvalidInputError, match="non-finite"):
            hand_stack.rebuild_tree(hand_stack.tree.partition(level), w)
        assert hand_stack.class_probs == before


def test_rebuild_rejects_negative_weights_without_changing_state(hand_stack):
    hand_stack.step([FineObservation(np.array([1.0, 0.2])), CoarseObservation(3, 1.5)])
    w = np.full(N, 1.0 / N)
    w[3] = -1e-3
    before = stack_state(hand_stack)
    for level in (hand_stack.tree.leaves(), {3, 2}):
        with pytest.raises(InvalidInputError, match="must be >= 0"):
            hand_stack.rebuild_tree(hand_stack.tree.partition(level), w)
        after = stack_state(hand_stack)
        for a, b in zip(after[1:4], before[1:4]):
            np.testing.assert_array_equal(a, b)
        assert after[4:] == before[4:]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_resample_rejects_non_finite_weights(hand_stack, bad):
    hand_stack.leaf_weights = np.full(N, 1.0 / N)
    hand_stack.leaf_weights[3] = bad
    before = stack_state(hand_stack)
    with pytest.raises(InvalidInputError, match="non-finite"):
        hand_stack.resample()
    after = stack_state(hand_stack)
    for a, b in zip(after[1:4], before[1:4]):
        np.testing.assert_array_equal(a, b)
    assert after[4:] == before[4:]


def flat_filter_state(pf):
    return (pf.t, pf.leaf_labels.copy(), pf.leaf_positions.copy(), pf.leaf_weights.copy(),
            dict(pf.diagnostics))


@pytest.mark.parametrize("bad, message", [(np.nan, "non-finite"), (np.inf, "non-finite"),
                                          (-np.inf, "non-finite"), (-1e-3, "must be >= 0")])
def test_resample_rejects_negative_or_non_finite_weights(hand_stack, hand_tree, bad, message):
    trajs = hand_trajectories()
    leaves = hand_tree.leaves()
    dyn = build_dynamics(hand_tree, trajs, kappa=0.5, epsilon_floor=0.5)
    pf = LeafParticleFilter(leaves, {c: dyn[c] for c in leaves}, {c: 1.0 for c in leaves},
                            start_points(hand_tree, trajs), N, 0.01, 31)
    w = np.full(N, 1.0 / N)
    w[3] = bad
    hand_stack.leaf_weights, pf.leaf_weights = w.copy(), w.copy()
    for target, state in [(hand_stack, stack_state), (pf, flat_filter_state)]:
        before = state(target)
        with pytest.raises(InvalidInputError, match=message):
            target.resample()
        for a, b in zip(state(target), before):
            np.testing.assert_array_equal(a, b)


def test_labels_reject_in_place_writes(hand_stack, hand_tree):
    # Both filters cache the grouping of particles by class; a write that
    # bypasses the setter would leave it stale.
    trajs = hand_trajectories()
    leaves = hand_tree.leaves()
    dyn = build_dynamics(hand_tree, trajs, kappa=0.5, epsilon_floor=0.5)
    pf = LeafParticleFilter(leaves, {c: dyn[c] for c in leaves}, {c: 1.0 for c in leaves},
                            start_points(hand_tree, trajs), N, 0.01, 31)
    for labels in (hand_stack.leaf_labels, pf.leaf_labels):
        with pytest.raises(ValueError):
            labels[0] = 0


def test_resample_reset_keeps_diagnostics_json(hand_stack):
    hand_stack.leaf_weights = np.zeros(N)
    resets = hand_stack.diagnostics["uniform_resets"]
    hand_stack.resample()
    assert hand_stack.diagnostics["uniform_resets"] == resets + 1
    assert type(hand_stack.diagnostics["uniform_resets"]) is int
    json.dumps(hand_stack.diagnostics)


def test_one_stream_per_step(monkeypatch, fixed_corpus, fixed_tree):
    import mhpf.evaluation
    import mhpf.stack

    calls = {"stack": 0, "evaluation": 0}

    def counting(module):
        real = getattr(module, "substream")

        def substream(*args):
            calls[module.__name__.split(".")[-1]] += 1
            return real(*args)
        return substream

    for module in (mhpf.stack, mhpf.evaluation):
        monkeypatch.setattr(module, "substream", counting(module))
    dyn = build_dynamics(fixed_tree, fixed_corpus, kappa=0.3,
                         epsilon_floor=2 * mean_spacing(fixed_corpus))
    leaves = fixed_tree.leaves()
    prior = {c: 1.0 / len(leaves) for c in leaves}
    starts = start_points(fixed_tree, fixed_corpus)
    stack = FilterStack(fixed_tree, dyn, prior, starts, N, 0.05, seed=3)
    pf = LeafParticleFilter(leaves, {c: dyn[c] for c in leaves}, prior, starts, N, 0.05, 3)
    # Both filters draw from stack's streams; evaluation draws none.
    assert calls == {"stack": 2, "evaluation": 0}
    level = fixed_tree.unique_births()[3]
    truth = fixed_corpus[2].points
    for t in range(1, 21):
        obs = [FineObservation(truth[t]), CoarseObservation(fixed_tree.alive_ids(level)[0], level)]
        stack.step(obs)
        pf.step(obs)
        # Populated classes per step: several, yet one stream each.
        assert calls == {"stack": 2 + 2 * t, "evaluation": 0}


# sha256 of the all-level snapshots below, recorded when leaf masses became
# the stack's only probability state: any change to a probability, a MAP
# class, a point estimate, a coarse draw or a stream shows here.
GOLDEN_MIXED_RUN_SHA256 = "39b5808c928601d5378668901daf315a469d8969326527eb234a57e55a21acc0"


def test_mixed_run_snapshots_match_golden(fixed_corpus, fixed_tree):
    dyn = build_dynamics(fixed_tree, fixed_corpus, kappa=0.3,
                         epsilon_floor=2 * mean_spacing(fixed_corpus))
    prior = {c: 1.0 / fixed_tree.leaf_count for c in fixed_tree.leaves()}
    stack = FilterStack(fixed_tree, dyn, prior, start_points(fixed_tree, fixed_corpus),
                        N, 0.01, seed=2718)
    scale = bbox_diagonal(fixed_corpus)
    index = ClassPointIndex(fixed_tree, fixed_corpus)
    births = fixed_tree.unique_births()
    truth = fixed_corpus[5].points
    rng = np.random.default_rng(61)
    digest = hashlib.sha256()
    for t in range(1, 61):
        z = truth[min(t, len(truth) - 1)]
        obs = [gen_fine(z, 0.02, scale, rng)]
        if rng.random() < 0.5:
            level = float(births[int(rng.integers(len(births)))])
            obs.append(gen_coarse(z, 0.02, index, level, rng, scale))
        digest.update(json.dumps(stack.step(obs), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_MIXED_RUN_SHA256


def ternary_tree():
    """Six leaves; node 6 has three children (0, 1, 2), the rest merge in pairs."""
    def node(nid, birth, death, parent, children, members):
        return {"id": nid, "members": [str(m) for m in members], "birth": birth,
                "death": death, "parent": parent, "children": children}

    return ClusterTree.from_dict({"root": 9, "nodes": [
        *(node(i, 0.0, 1.0, 6, [], [i]) for i in range(3)),
        node(3, 0.0, 0.5, 7, [], [3]), node(4, 0.0, 0.5, 7, [], [4]),
        node(5, 0.0, 2.0, 8, [], [5]),
        node(6, 1.0, 3.0, 9, [0, 1, 2], [0, 1, 2]),
        node(7, 0.5, 2.0, 8, [3, 4], [3, 4]),
        node(8, 2.0, 3.0, 9, [7, 5], [3, 4, 5]),
        node(9, 3.0, None, None, [6, 8], range(6)),
    ]})


# sha256 of the all-level snapshots of a run on ternary_tree(), recorded
# when leaf masses became the stack's only probability state. The prior
# leaves node 6 empty at the first step, whose coarse observation names a
# level where node 6 is alive, so the rebuild splits node 6's mass over its
# three leaves; node 6's probability always sums three leaf masses.
GOLDEN_TERNARY_RUN_SHA256 = "f19d6063269fc29b69206c513cdf0960696a4f464104f527a74a6be5caa14c01"


def test_ternary_tree_run_snapshots_match_golden():
    tree = ternary_tree()
    steps = np.arange(30)
    corpus = [Trajectory(str(i), np.column_stack([steps / 3.0,
                                                  1.5 * i + np.sin(steps * (i + 1) / 7)]))
              for i in range(6)]
    dyn = build_dynamics(tree, corpus, kappa=0.3, epsilon_floor=2 * mean_spacing(corpus))
    stack = FilterStack(tree, dyn, {3: 1.0, 4: 1.0, 5: 1.0},
                        start_points(tree, corpus), 60, 0.05, seed=99)
    scale = bbox_diagonal(corpus)
    index = ClassPointIndex(tree, corpus)
    births = tree.unique_births()
    truth = corpus[1].points
    rng = np.random.default_rng(17)
    digest = hashlib.sha256()
    for t in range(1, len(truth)):
        level = float(births[(t + 1) % len(births)])
        obs = [gen_coarse(truth[t], 0.05, index, level, rng, scale)]
        if t % 3:
            obs.insert(0, gen_fine(truth[t], 0.02, scale, rng))
        digest.update(json.dumps(stack.step(obs), sort_keys=True).encode() + b"\n")
        check_consistency(stack)
    assert digest.hexdigest() == GOLDEN_TERNARY_RUN_SHA256


# Bound on the leaf-mass rebuild's distance from the level-by-level dict walk,
# which rounds differently: probabilities are at most 1, and a few dozen
# float64 operations stay far below this.
WALK_ATOL = 1e-12


def assert_rebuild_matches_reference(stack, part, weights):
    """The rebuild gives the per-leaf loop's masses bit for bit, and the dict walk's closely."""
    tree, prev = stack.tree, stack.prev_probs
    prev_masses = [prev[c] for c in tree.leaves()]
    stack.rebuild_tree(part, weights)
    masses = reference_leaf_masses(tree, part.ids, stack.leaf_labels, weights, prev_masses)
    got = stack.class_probs
    ids = sorted(got)
    assert ids == sorted(tree.nodes)
    got_rows = np.array([got[c] for c in ids])
    assert np.array([got[c] for c in tree.leaves()]).tobytes() == np.array(masses).tobytes()
    walk = reference_rebuild(tree, part.ids, stack.leaf_labels, weights, prev)
    np.testing.assert_allclose(got_rows, [walk[c] for c in ids], rtol=0.0, atol=WALK_ATOL)
    assert stack.prev_probs == prev


def rebuild_every_level_against_reference(stack, rng):
    """Random prior-step masses, particles moved to random leaves, then every level."""
    tree, n = stack.tree, stack.n_particles

    def random_weights():
        w = rng.random(n)
        w[rng.random(n) < 0.3] = 0.0
        w[int(rng.integers(n))] = 1.0
        return w

    stack.rebuild_tree(tree.partition(tree.leaves()), random_weights())
    stack._prev_masses = stack._masses
    stack.leaf_labels = rng.choice(tree.leaves(), size=n)
    for b in tree.unique_births():
        assert_rebuild_matches_reference(stack, tree.partition(tree.alive_ids(b)),
                                         random_weights())


def test_rebuild_matches_reference_on_random_trees():
    rng = np.random.default_rng(405)
    for trial in range(16):
        corpus = random_corpus(rng, lattice=trial % 2 == 1)
        tree = single_linkage(distance_matrix(corpus), member_ids=[t.id for t in corpus])
        dyn = build_dynamics(tree, corpus, kappa=0.3, epsilon_floor=2 * mean_spacing(corpus))
        leaves = tree.leaves()
        # Leaves outside the prior start with no mass: their parents can be exhausted.
        prior = {c: 1.0 for c in rng.choice(leaves, size=int(rng.integers(1, len(leaves) + 1)),
                                              replace=False).tolist()}
        stack = FilterStack(tree, dyn, prior, start_points(tree, corpus),
                            int(rng.integers(5, 60)), 0.0, seed=trial)
        rebuild_every_level_against_reference(stack, rng)


def ternary_stack(prior, seed):
    """A 60-particle stack on ternary_tree() over a short six-trajectory corpus."""
    tree = ternary_tree()
    steps = np.arange(10)
    corpus = [Trajectory(str(i), np.column_stack([steps / 3.0, 1.5 * i + np.sin(steps)]))
              for i in range(6)]
    dyn = build_dynamics(tree, corpus, kappa=0.3, epsilon_floor=2 * mean_spacing(corpus))
    return FilterStack(tree, dyn, prior, start_points(tree, corpus), 60, 0.0, seed=seed)


def test_rebuild_matches_reference_on_ternary_tree():
    rng = np.random.default_rng(406)
    for prior in ({3: 1.0, 4: 1.0, 5: 1.0}, {c: 1.0 for c in range(6)}):
        rebuild_every_level_against_reference(ternary_stack(prior, seed=7), rng)


def test_rebuild_exhausted_class_splits_over_leaves_not_children():
    # Node 8 covers leaves 3 and 4 (through node 7) and leaf 5. Split over its
    # children, leaf 5 would take half of node 8's new mass; over its leaves,
    # each of the three takes a third.
    stack = ternary_stack({0: 1.0, 1: 1.0, 2: 1.0}, seed=5)
    assert stack.class_probs[8] == 0.0
    labels = stack.leaf_labels.copy()
    labels[:30] = 3
    stack.leaf_labels = labels
    stack.rebuild_tree(stack.tree.partition({6, 8}), np.full(60, 1.0 / 60))
    probs = stack.class_probs
    assert probs[8] == pytest.approx(0.5)
    assert [probs[c] for c in (3, 4, 5)] == pytest.approx([0.5 / 3] * 3)
    assert probs[7] == pytest.approx(1.0 / 3.0)
    check_consistency(stack)


def test_rebuild_matches_reference_through_an_exhausted_parent(hand_stack):
    stack = hand_stack
    force_counts(stack, {0: 0, 1: 0, 2: N})
    labels = stack.leaf_labels.copy()
    labels[:N // 2] = 0
    stack.leaf_labels = labels
    w = np.linspace(0.0, 1.0, N)
    for level in ({3, 2}, {4}, stack.tree.leaves()):
        assert_rebuild_matches_reference(stack, stack.tree.partition(level), w)
