"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 5-8 exercise full experiment sweeps and take several minutes.
"""

import time

import numpy as np
import pytest
from scipy.stats import ranksums

from helpers import ReferenceLeafFilter, brute_force_frechet, naive_single_linkage, start_sampler
from mhpf.datasets import gen_fixed_endpoints, discretize_uniform, gen_harbor_corpus
from mhpf.dynamics import build_dynamics
from mhpf.evaluation import (ExperimentConfig, RunParams,
                             build_scenario, convergence_time, make_observation_plan,
                             mean_spacing, run_experiment)
from mhpf.filtration import flat_tree, single_class_tree, single_linkage
from mhpf.geometry import distance_matrix, frechet_distance
from mhpf.obsgen import bbox_diagonal, gen_fine
from mhpf.seeding import PHASE_DATA, PHASE_OBSERVE, child_seed, substream
from mhpf.stack import (CoarseObservation, FilterStack, FineObservation,
                        check_consistency, start_points)

WORKERS = 2


def report(n, ok, detail):
    print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_frechet_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, min(6, 11 - n)))
        p = rng.integers(-5, 6, size=(n, 2)).astype(float)
        q = rng.integers(-5, 6, size=(m, 2)).astype(float)
        if frechet_distance(p, q) != brute_force_frechet(p, q):
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 10.0
    assert report(1, ok, f"200 coupling-oracle pairs, {mismatches} mismatches, "
                         f"{elapsed:.1f}s (limit 10s)")


def test_criterion_2_clustering_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    height_mismatches = 0
    ultrametric_violations = 0
    for _ in range(100):
        m = int(rng.integers(2, 13))
        a = rng.uniform(0.1, 10.0, size=(m, m))
        d = (a + a.T) / 2.0
        np.fill_diagonal(d, 0.0)
        tree = single_linkage(d)
        internal = [tree.nodes[i] for i in sorted(tree.nodes) if not tree.nodes[i].is_leaf]
        got = [(n.birth, frozenset(int(x) for x in n.members)) for n in internal]
        want = [(h, frozenset(mem)) for h, mem in naive_single_linkage(d)]
        if got != want:
            height_mismatches += 1
        leaves = tree.leaves()
        for i in leaves:
            for j in leaves:
                for k in leaves:
                    dij = tree.tree_class_distance(i, j)
                    djk = tree.tree_class_distance(j, k)
                    dik = tree.tree_class_distance(i, k)
                    if dik > max(dij, djk):
                        ultrametric_violations += 1
    elapsed = time.monotonic() - start
    ok = height_mismatches == 0 and ultrametric_violations == 0 and elapsed < 30.0
    assert report(2, ok, f"100 matrices vs naive single linkage: "
                         f"{height_mismatches} tree mismatches, "
                         f"{ultrametric_violations} ultrametric violations, "
                         f"{elapsed:.1f}s (limit 30s)")


def test_criterion_3_consistency_suite():
    start = time.monotonic()
    rng = np.random.default_rng(303)
    corpus = [discretize_uniform(t, 60)
              for t in gen_fixed_endpoints(13, substream(3, PHASE_DATA))]
    tree = single_linkage(distance_matrix(corpus), member_ids=[t.id for t in corpus])
    dyn = build_dynamics(tree, corpus, kappa=0.4, epsilon_floor=2 * mean_spacing(corpus))
    prior = {c: 1.0 / tree.leaf_count for c in tree.leaves()}
    stack = FilterStack(tree, dyn, prior, start_points(tree, corpus),
                        100, 0.01, seed=303)
    births = tree.unique_births()
    span = bbox_diagonal(corpus)
    failures = 0
    for step in range(1000):
        obs = []
        if rng.random() < 0.6:
            obs.append(FineObservation(rng.uniform(-span / 2, span / 2, size=2)))
        if rng.random() < 0.4:
            b = float(rng.choice(births))
            alive = sorted(tree.alive_at(b))
            obs.append(CoarseObservation(alive[int(rng.integers(len(alive)))], b))
        stack.step(obs)
        try:
            check_consistency(stack)
        except AssertionError:
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 60.0
    assert report(3, ok, f"1000 randomized steps on the 13-lane corpus: "
                         f"{failures} consistency failures, {elapsed:.1f}s (limit 60s)")


def test_criterion_4_reduction_suite():
    corpus = [discretize_uniform(t, 101)
              for t in gen_fixed_endpoints(13, substream(3, PHASE_DATA))]
    floor = 2 * mean_spacing(corpus)
    scale = bbox_diagonal(corpus)
    rng_obs = substream(404, PHASE_OBSERVE)
    truth = corpus[4]
    plan = [[gen_fine(truth.points[t], 0.02, scale, rng_obs)] for t in range(1, 101)]

    # BL1 against the bottom layer of a flat-tree stack.
    tree = flat_tree([t.id for t in corpus], root_birth=5.0)
    dyn = build_dynamics(tree, corpus, kappa=0.4, epsilon_floor=floor)
    prior = {c: 1.0 / tree.leaf_count for c in tree.leaves()}
    starts = start_points(tree, corpus)
    seed = child_seed(404, 0, 0)
    stack = FilterStack(tree, dyn, prior, starts, 100, 0.01, seed)
    pf = ReferenceLeafFilter(tree.leaves(), {c: dyn[c] for c in tree.leaves()},
                             prior, start_sampler(starts), 100, 0.01, seed)
    bl1_equal = True
    for obs in plan:
        snap_stack = stack.step(obs, snapshot_levels=[0.0])
        snap_pf = pf.step(obs)
        if snap_stack != snap_pf or not np.array_equal(stack.leaf_positions, pf.positions):
            bl1_equal = False
            break

    # BL2 against a single pooled-class stack sharing the same dynamics.
    sc_tree = single_class_tree([t.id for t in corpus])
    pooled = build_dynamics(sc_tree, corpus, kappa=0.4, epsilon_floor=floor * 4)
    starts2 = start_points(sc_tree, corpus)
    seed2 = child_seed(404, 0, 1)
    stack2 = FilterStack(sc_tree, pooled, {0: 1.0}, starts2, 100, 0.01, seed2)
    pf2 = ReferenceLeafFilter([0], {0: pooled[0]}, {0: 1.0}, start_sampler(starts2), 100, 0.01,
                              seed2)
    bl2_equal = True
    for obs in plan:
        snap_stack = stack2.step(obs, snapshot_levels=[0.0])
        snap_pf = pf2.step(obs)
        if snap_stack != snap_pf or not np.array_equal(stack2.leaf_positions, pf2.positions):
            bl2_equal = False
            break

    ok = bl1_equal and bl2_equal
    assert report(4, ok, f"100-step bit-identical snapshots: "
                         f"BL1==bottom-layer {bl1_equal}, BL2==pooled-stack {bl2_equal}")


def scenario_means(raw, cell, kind, per_run_metric):
    """Mean of a per-run metric per scenario, for rank-sum comparisons."""
    runs = {}
    for row in raw:
        if (row["mode"], row["kappa"], row["psi"], row["lead_in"]) != cell:
            continue
        if row["filter"] != kind:
            continue
        key = (row["scenario"], row["repeat"])
        runs.setdefault(key, []).append((row["step"], row["mse"], row["tree_distance"],
                                         row["root_birth"]))
    by_scenario = {}
    for (scenario, _), items in runs.items():
        items.sort()
        mses = [x[1] for x in items]
        dists = [x[2] for x in items]
        root = items[0][3]
        if per_run_metric == "mse":
            val = float(np.mean(mses))
        elif per_run_metric == "conv":
            conv = convergence_time(dists, root)
            val = float(len(dists) if conv is None else conv)
        else:
            raise ValueError(per_run_metric)
        by_scenario.setdefault(scenario, []).append(val)
    return [float(np.mean(v)) for _, v in sorted(by_scenario.items())]


@pytest.mark.slow
def test_criterion_5_fine_only_ordering():
    start = time.monotonic()
    cfg = ExperimentConfig(corpus_kind="obstacle", corpus_n=33, n_points=100,
                           corpus_seed=7, n_scenarios=10, n_repeats=25, seed=505,
                           kappas=(0.3,), psis=(0.01,), mode="mixed", coarse_prob=0.0,
                           filters=("mhpf", "bl1", "bl2"), n_particles=100,
                           workers=WORKERS)
    raw, summary = run_experiment(cfg)
    elapsed = time.monotonic() - start
    by = {row["filter"]: row for row in summary}
    m, b1, b2 = (by[k]["mean_mse"] for k in ("mhpf", "bl1", "bl2"))
    cell = ("mixed", 0.3, 0.01, 0.0)
    p = ranksums(scenario_means(raw, cell, "mhpf", "mse"),
                 scenario_means(raw, cell, "bl1", "mse")).pvalue
    ordering = m < b1 < b2
    ok = ordering and p < 0.05 and elapsed < 15 * 60
    assert report(5, ok, f"fine-only MSE means mhpf={m:.4f} bl1={b1:.4f} bl2={b2:.4f}; "
                         f"mhpf<bl1<bl2={ordering}; rank-sum p={p:.4f} (need <0.05); "
                         f"{elapsed:.0f}s. Note: the bottom level of the stack under "
                         f"fine-only observations is the BL1 process by construction "
                         f"(criterion 4), so mhpf==bl1 exactly and the strict "
                         f"inequality cannot hold.")


@pytest.mark.slow
def test_criterion_6_coarse_benefit():
    start = time.monotonic()
    cfg = ExperimentConfig(corpus_kind="fixed", corpus_n=13, n_points=100,
                           corpus_seed=3, n_scenarios=10, n_repeats=12, seed=606,
                           kappas=(0.3, 0.5, 0.75), psis=(0.01, 0.05),
                           mode="mixed", coarse_prob=0.5, coarse_level=1.0,
                           filters=("mhpf", "bl1"), n_particles=100, workers=WORKERS)
    raw, summary = run_experiment(cfg)
    elapsed = time.monotonic() - start
    cells = {}
    for row in summary:
        cells.setdefault((row["kappa"], row["psi"]), {})[row["filter"]] = row
    losses = []
    details = []
    for cell, d in sorted(cells.items()):
        fq_m = d["mhpf"]["mean_final_quarter_distance"]
        fq_b = d["bl1"]["mean_final_quarter_distance"]
        details.append(f"k={cell[0]},psi={cell[1]}: {fq_m:.3f} vs {fq_b:.3f}")
        if not fq_m < fq_b:
            losses.append(cell)
    ok = not losses and elapsed < 15 * 60
    assert report(6, ok, f"final-quarter tree distance mhpf<bl1 in all 6 cells "
                         f"(losses: {losses}); {'; '.join(details)}; {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_7_lead_in_convergence():
    start = time.monotonic()
    cfg = ExperimentConfig(corpus_kind="fixed", corpus_n=13, n_points=100,
                           corpus_seed=3, n_scenarios=8, n_repeats=8, seed=707,
                           kappas=(0.3, 0.75), psis=(0.01,),
                           mode="lead_in", lead_in_fractions=(0.05, 0.075),
                           coarse_level=1.0, filters=("mhpf", "bl1"),
                           n_particles=100, workers=WORKERS)
    raw, summary = run_experiment(cfg)
    elapsed = time.monotonic() - start
    mhpf_vals, bl1_vals = [], []
    for kappa in cfg.kappas:
        for lead in cfg.lead_in_fractions:
            cell = ("lead_in", kappa, 0.01, lead)
            mhpf_vals.extend(scenario_means(raw, cell, "mhpf", "conv"))
            bl1_vals.extend(scenario_means(raw, cell, "bl1", "conv"))
    mean_m, mean_b = float(np.mean(mhpf_vals)), float(np.mean(bl1_vals))
    p = ranksums(mhpf_vals, bl1_vals).pvalue
    ok = mean_m < mean_b and p < 0.05 and elapsed < 15 * 60
    assert report(7, ok, f"convergence steps mhpf={mean_m:.1f} bl1={mean_b:.1f}, "
                         f"pooled rank-sum p={p:.4f} (need <0.05); {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_8_density_walk_pipeline():
    start = time.monotonic()
    corpus = gen_harbor_corpus(194, substream(7, PHASE_DATA), n_points=100)
    full = distance_matrix(corpus)
    scenarios = [build_scenario(corpus, i, full_matrix=full, index=i)
                 for i in (20, 110)]

    # Invariant check along one full run of the first cell.
    sc = scenarios[0]
    params = RunParams(kappa=0.1, psi=0.1, mode="mixed", coarse_prob=0.5)
    plan = make_observation_plan(sc, params, 808, 0)
    dyn = {nid: d.with_kappa(params.kappa) for nid, d in sc.dynamics_base.items()}
    stack = FilterStack(sc.tree, dyn, {c: 1.0 / sc.tree.leaf_count for c in sc.tree.leaves()},
                        start_points(sc.tree, sc.corpus), 100, 0.01,
                        child_seed(808, sc.index, 0))
    invariant_failures = 0
    for obs in plan:
        stack.step(obs)
        try:
            check_consistency(stack)
        except AssertionError:
            invariant_failures += 1

    cfg = ExperimentConfig(corpus_kind="harbor", corpus_n=194, n_points=100,
                           corpus_seed=7, n_scenarios=2, n_repeats=2, seed=808,
                           kappas=(0.1, 0.3), psis=(0.1, 0.2),
                           mode="mixed", coarse_prob=0.5,
                           filters=("mhpf", "bl1"), n_particles=100, workers=WORKERS)
    raw, summary = run_experiment(cfg, corpus=corpus, scenarios=scenarios)
    diffs = []
    cells = {}
    for row in summary:
        cells.setdefault((row["kappa"], row["psi"]), {})[row["filter"]] = row
    for cell, d in sorted(cells.items()):
        diffs.append(d["mhpf"]["mean_tree_distance"] - d["bl1"]["mean_tree_distance"])
    pooled = float(np.mean(diffs))
    elapsed = time.monotonic() - start
    ok = invariant_failures == 0 and pooled <= 0 and elapsed < 30 * 60
    assert report(8, ok, f"194-walk harbor pipeline: {invariant_failures} invariant "
                         f"failures; pooled mean tree-distance difference "
                         f"mhpf-bl1={pooled:.3f} (need <=0); {elapsed:.0f}s (limit 1800s)")
