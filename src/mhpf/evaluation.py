"""Metrics, the baseline runs, and the experiment harness.

Two reference filters bracket the hierarchy, both a `stack.LeafParticleFilter`
that ignores coarse observations: BL1 runs over the single-trajectory leaf
classes and BL2 over one pooled class following the combined-corpus
dynamics. The stack extends that filter, so under a shared seed BL1 is the
stack's bottom level bit for bit (and BL2 a one-class stack). Particles start
at their class's mean start point (`stack.start_points`).

The harness sweeps noise cells over scenarios x repeats, records per-step
squared error and tree-class distance of the MAP prediction against the
ground truth, and summarizes cells with rank-sum tests against BL1: the
two-sided normal approximation with averaged tie ranks and no tie correction,
the same p-values as scipy.stats.ranksums.
"""

from __future__ import annotations

import csv
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import InitVar, dataclass, field
from functools import partial

import numpy as np
from scipy.special import ndtr

from . import datasets
from .dynamics import build_dynamics, check_epsilon_floor, check_kappa
from .errors import InvalidInputError
from .filtration import single_class_tree, single_linkage
from .geometry import Trajectory, distance_matrix, load_trajectories
from .obsgen import ClassPointIndex, ObsConfig, bbox_diagonal, default_coarse_level, observation_plan
from .seeding import (PHASE_DATA, PHASE_OBSERVE, PHASE_SCENARIO, as_seed_sequence, child_seed,
                      substream)
from .stack import FilterStack, LeafParticleFilter, check_levels, check_particles, start_points

CONVERGENCE_FRACTION = 0.33


def mse(pred, truth) -> float:
    """Squared L2 distance between prediction and ground truth."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise InvalidInputError("point dimensions differ")
    return float(((pred - truth) ** 2).sum())


def map_tree_distance(tree, map_node: int, truth_leaf: int, b: float) -> float:
    """Tree-class distance from a MAP node to the truth's ancestor alive at b."""
    anc = tree.ancestor_alive_at(truth_leaf, b)
    return tree.tree_class_distance(map_node, anc)


def convergence_time(series, root_birth: float):
    """First step after which the distance stays within the threshold ball.

    Returns the step index, or None if the series never settles below
    CONVERGENCE_FRACTION * root_birth.
    """
    thr = CONVERGENCE_FRACTION * root_birth
    last_bad = -1
    for i, v in enumerate(series):
        if v > thr:
            last_bad = i
    if last_bad == len(series) - 1:
        return None
    return last_bad + 1


# -- scenarios -----------------------------------------------------------------


@dataclass
class Scenario:
    """One held-out trial: corpus, tree, dynamics, and the ground truth.

    The dynamics radius floor `epsilon_floor` defaults to twice the corpus's
    mean point spacing.
    """

    index: int
    corpus: list
    tree: object
    truth: Trajectory | None
    truth_leaf: int | None
    epsilon_floor: InitVar[float | None] = None
    scale: float = field(init=False)
    dynamics_base: dict = field(init=False, repr=False)
    point_index: ClassPointIndex = field(init=False, repr=False)

    def __post_init__(self, epsilon_floor):
        if epsilon_floor is None:
            epsilon_floor = 2.0 * mean_spacing(self.corpus)
        self.scale = bbox_diagonal(self.corpus)
        self.dynamics_base = build_dynamics(self.tree, self.corpus, kappa=0.0,
                                            epsilon_floor=epsilon_floor)
        self.point_index = ClassPointIndex(self.tree, self.corpus)


def mean_spacing(trajectories) -> float:
    vals = [t.arc_length() / (len(t) - 1) for t in trajectories if len(t) >= 2]
    if not vals:
        raise InvalidInputError("no multi-point trajectories")
    return float(np.mean(vals))


def build_scenario(trajectories, truth_index: int, epsilon_floor: float | None = None,
                   holdout: bool = True, full_matrix: np.ndarray | None = None,
                   index: int = 0) -> Scenario:
    """Cluster the corpus (ground truth held out by default) and wire dynamics."""
    if not (0 <= truth_index < len(trajectories)):
        raise InvalidInputError(f"truth index {truth_index} out of range")
    if full_matrix is None:
        full_matrix = distance_matrix(trajectories)
    elif np.shape(full_matrix) != (len(trajectories),) * 2:
        raise InvalidInputError(f"full_matrix shape {np.shape(full_matrix)} does not match "
                                f"{len(trajectories)} trajectories")
    truth = trajectories[truth_index]
    if holdout:
        keep = [i for i in range(len(trajectories)) if i != truth_index]
    else:
        keep = list(range(len(trajectories)))
    corpus = [trajectories[i] for i in keep]
    if len(corpus) < 2:
        raise InvalidInputError("corpus too small after holdout")
    sub = full_matrix[np.ix_(keep, keep)]
    tree = single_linkage(sub, member_ids=[t.id for t in corpus])
    if holdout:
        row = full_matrix[truth_index, keep]
        nearest = corpus[int(np.argmin(row))]
        truth_leaf = tree.leaf_for(nearest.id)
    else:
        truth_leaf = tree.leaf_for(truth.id)
    return Scenario(index, corpus, tree, truth, truth_leaf, epsilon_floor)


@dataclass
class RunParams:
    n_particles: int = 100
    depletion: float = 0.01
    kappa: float = 0.3
    psi: float = 0.01
    mode: str = "mixed"
    coarse_prob: float = 0.0
    coarse_level: float | None = None
    lead_in_fraction: float = 0.0
    eval_level: float | None = None


@dataclass
class ScenarioResult:
    mse: list
    tree_distance: list
    convergence_step: int | None


def _obs_config(params: RunParams) -> ObsConfig:
    """The checked observation settings of one cell."""
    return ObsConfig(psi=params.psi, coarse_prob=params.coarse_prob,
                     coarse_level=params.coarse_level,
                     lead_in_fraction=params.lead_in_fraction, mode=params.mode)


def make_observation_plan(scenario: Scenario, params: RunParams, seed, repeat: int):
    """The shared per-step observation lists for one (scenario, repeat) trial."""
    rng = substream(seed, PHASE_OBSERVE, scenario.index, repeat)
    return observation_plan(scenario.truth.points, _obs_config(params), scenario.point_index,
                            scenario.scale, rng)


def filter_args(scenario: Scenario, params: RunParams, seed) -> tuple:
    """The arguments FilterStack takes after the tree, for one trial.

    The scenario's dynamics at `params.kappa`, a uniform leaf prior and the
    leaves' mean start points, then the particle count, depletion and seed.
    """
    tree = scenario.tree
    return ({nid: d.with_kappa(params.kappa) for nid, d in scenario.dynamics_base.items()},
            {c: 1.0 / tree.leaf_count for c in tree.leaves()},
            start_points(tree, scenario.corpus),
            params.n_particles, params.depletion, seed)


def _eval_level(scenario: Scenario, params: RunParams) -> float:
    if params.eval_level is not None:
        return params.eval_level
    if params.coarse_level is not None:
        return params.coarse_level
    return default_coarse_level(scenario.tree)


def _trial(scenario, params, seed, repeat, plan, start, map_node=None) -> ScenarioResult:
    """Score, step by step, the filter whose step function `start(filter_args, level)` returns.

    The point estimate is scored by `mse`, the MAP class at the evaluation
    level (or `map_node`, the node a one-class filter stands for) by `map_tree_distance`.
    """
    if plan is None:
        plan = make_observation_plan(scenario, params, seed, repeat)
    tree = scenario.tree
    level = _eval_level(scenario, params)
    step = start(filter_args(scenario, params, child_seed(seed, scenario.index, repeat)), level)
    mses, dists = [], []
    for t, obs in enumerate(plan, start=1):
        snap = step(obs)
        mses.append(mse(snap["point_estimate"], scenario.truth.points[t]))
        node = snap["map_class"][0]["class_id"] if map_node is None else map_node
        dists.append(map_tree_distance(tree, node, scenario.truth_leaf, level))
    return ScenarioResult(mses, dists, convergence_time(dists, tree.root_birth))


def run_mhpf(scenario: Scenario, params: RunParams, seed, repeat: int = 0,
             plan=None) -> ScenarioResult:
    """Full hierarchical run: cluster tree, stacked filters, both obs kinds."""
    def start(args, level):
        return partial(FilterStack(scenario.tree, *args).step, snapshot_levels=[level])
    return _trial(scenario, params, seed, repeat, plan, start)


def run_bl1(scenario: Scenario, params: RunParams, seed, repeat: int = 0,
            plan=None) -> ScenarioResult:
    """Flat filter over leaf classes; coarse observations are ignored."""
    def start(args, level):
        return LeafParticleFilter(scenario.tree.leaves(), *args).step
    return _trial(scenario, params, seed, repeat, plan, start)


def run_bl2(scenario: Scenario, params: RunParams, seed, repeat: int = 0,
            plan=None) -> ScenarioResult:
    """Single-class filter following the pooled root dynamics, scored as the root."""
    root = scenario.tree.root

    def start(args, level):
        dyn, _, _, n_particles, depletion, trial_seed = args
        pooled = single_class_tree([t.id for t in scenario.corpus])
        return LeafParticleFilter([0], {0: dyn[root]}, {0: 1.0},
                                  start_points(pooled, scenario.corpus),
                                  n_particles, depletion, trial_seed).step
    return _trial(scenario, params, seed, repeat, plan, start, map_node=root)


_RUNNERS = {"mhpf": run_mhpf, "bl1": run_bl1, "bl2": run_bl2}


# -- experiment harness ----------------------------------------------------------

# Raw CSV columns, in file order, with the type parse_raw_rows reads each as.
_RAW_TYPES = {"mode": str, "kappa": float, "psi": float, "lead_in": float, "scenario": int,
              "repeat": int, "filter": str, "step": int, "mse": float, "tree_distance": float,
              "root_birth": float}
RAW_FIELDS = list(_RAW_TYPES)
SUMMARY_FIELDS = ["mode", "kappa", "psi", "lead_in", "filter", "runs",
                  "mean_mse", "sd_mse", "mean_tree_distance", "sd_tree_distance",
                  "mean_final_quarter_distance", "mean_convergence_steps",
                  "p_mse_vs_bl1", "p_dist_vs_bl1", "p_conv_vs_bl1"]


@dataclass
class ExperimentConfig:
    corpus_kind: str = "obstacle"          # junction|fixed|obstacle|harbor|file
    corpus_path: str | None = None
    corpus_n: int | None = None
    corpus_seed: int = 7
    n_points: int = 100
    n_scenarios: int = 10
    n_repeats: int = 25
    seed: int = 1
    filters: tuple = ("mhpf", "bl1", "bl2")
    kappas: tuple = (0.3,)
    psis: tuple = (0.01,)
    mode: str = "mixed"
    coarse_prob: float = 0.0
    coarse_level: float | None = None
    lead_in_fractions: tuple = (0.0,)
    eval_level: float | None = None
    n_particles: int = 100
    depletion: float = 0.01
    epsilon_floor: float | None = None
    holdout: bool = True
    workers: int = 1


def load_corpus(cfg: ExperimentConfig) -> list[Trajectory]:
    rng = substream(cfg.corpus_seed, PHASE_DATA)
    if cfg.corpus_kind == "file":
        if not cfg.corpus_path:
            raise InvalidInputError("corpus_kind 'file' needs corpus_path")
        raw = load_trajectories(cfg.corpus_path)
    else:
        raw = datasets.generate(cfg.corpus_kind, cfg.corpus_n, rng, n_points=cfg.n_points)
    return [datasets.discretize_uniform(t, cfg.n_points) for t in raw]


def select_scenarios(n_trajectories: int, n_scenarios: int, seed) -> list[int]:
    rng = substream(seed, PHASE_SCENARIO)
    n = min(n_scenarios, n_trajectories)
    return sorted(int(i) for i in rng.choice(n_trajectories, size=n, replace=False))


def _cells(cfg: ExperimentConfig) -> list[RunParams]:
    """One RunParams per swept (kappa, psi, lead-in) cell."""
    leads = cfg.lead_in_fractions if cfg.mode == "lead_in" else (0.0,)
    return [RunParams(n_particles=cfg.n_particles, depletion=cfg.depletion, kappa=kappa,
                      psi=psi, mode=cfg.mode, coarse_prob=cfg.coarse_prob,
                      coarse_level=cfg.coarse_level, lead_in_fraction=lead,
                      eval_level=cfg.eval_level)
            for kappa, psi, lead in itertools.product(cfg.kappas, cfg.psis, leads)]


def _check_config(cfg: ExperimentConfig) -> list[RunParams]:
    """The swept cells of a config, every value checked before a corpus is built.

    Each value goes through the check that would reject it later in a run:
    the seeds, the observation settings, kappa, the dynamics radius floor,
    the particle count and depletion, and the evaluation level.
    """
    for kind in cfg.filters:
        if kind not in _RUNNERS:
            raise InvalidInputError(f"'filters': unknown filter {kind!r}, "
                                    f"expected one of {sorted(_RUNNERS)}")
    swept = ("filters", "kappas", "psis")
    for key in swept + (("lead_in_fractions",) if cfg.mode == "lead_in" else ()):
        if len(getattr(cfg, key)) == 0:
            raise InvalidInputError(f"{key!r} must not be empty")
    for key in ("n_scenarios", "n_repeats"):
        if getattr(cfg, key) < 1:
            raise InvalidInputError(f"{key!r} must be >= 1, got {getattr(cfg, key)!r}")
    as_seed_sequence(cfg.seed)
    as_seed_sequence(cfg.corpus_seed)
    check_particles(cfg.n_particles, cfg.depletion)
    if cfg.epsilon_floor is not None:
        check_epsilon_floor(cfg.epsilon_floor)
    if cfg.eval_level is not None:
        check_levels([cfg.eval_level], "eval_level")
    cells = _cells(cfg)
    for params in cells:
        _obs_config(params)
        check_kappa(params.kappa)
    return cells


def _run_trial(args):
    scenario, params, seed, repeat, filters = args
    plan = make_observation_plan(scenario, params, seed, repeat)
    rows = []
    for kind in filters:
        res = _RUNNERS[kind](scenario, params, seed, repeat, plan=plan)
        for step, (e, d) in enumerate(zip(res.mse, res.tree_distance), start=1):
            rows.append({
                "mode": params.mode, "kappa": params.kappa, "psi": params.psi,
                "lead_in": params.lead_in_fraction,
                "scenario": scenario.index, "repeat": repeat, "filter": kind,
                "step": step, "mse": e, "tree_distance": d,
                "root_birth": scenario.tree.root_birth,
            })
    return rows


def run_experiment(cfg: ExperimentConfig, corpus=None, scenarios=None):
    """Sweep cells over scenarios x repeats; returns (raw_rows, summary_rows).

    The config is checked (`_check_config`) before the corpus is loaded.
    """
    cells = _check_config(cfg)
    if corpus is None:
        corpus = load_corpus(cfg)
    if scenarios is None:
        full = distance_matrix(corpus)
        picks = select_scenarios(len(corpus), cfg.n_scenarios, cfg.seed)
        scenarios = [
            build_scenario(corpus, i, epsilon_floor=cfg.epsilon_floor,
                           holdout=cfg.holdout, full_matrix=full, index=i)
            for i in picks
        ]
    tasks = []
    for params in cells:
        for sc in scenarios:
            for rep in range(cfg.n_repeats):
                tasks.append((sc, params, cfg.seed, rep, tuple(cfg.filters)))
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            chunks = list(pool.map(_run_trial, tasks, chunksize=4))
    else:
        chunks = [_run_trial(t) for t in tasks]
    raw = [row for chunk in chunks for row in chunk]
    return raw, summarize(raw)


def ranksum_p(x, y) -> float:
    """Two-sided Wilcoxon rank-sum p-value of two non-empty samples.

    The normal approximation to the rank sum of x, with tied values given
    their average rank and no tie correction to the variance. The arithmetic
    follows scipy.stats.ranksums step for step, so the p-values agree with it
    bit for bit. A NaN in either sample gives NaN, as there.
    """
    x, y = np.asarray(x), np.asarray(y)
    n1, n2 = len(x), len(y)
    data = np.concatenate((x, y))
    if np.isnan(data).any():
        return math.nan
    order = np.argsort(data, kind="stable")
    ordered = data[order]
    first = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(first, append=data.size)
    ranks = np.empty(data.size)
    ranks[order] = np.repeat(first + 1 + (counts - 1) / 2, counts)
    s = np.sum(ranks[:n1])
    expected = n1 * (n1 + n2 + 1) / 2.0
    z = (s - expected) / np.sqrt(n1 * n2 * (n1 + n2 + 1) / 12.0)
    return float(2 * ndtr(-abs(z)))


def summarize(raw_rows):
    """Per-cell, per-filter aggregates recomputed purely from raw rows.

    Each MHPF row gets rank-sum p-values against BL1 over its per-scenario
    means (ranksum_p: two-sided normal approximation, averaged ties, no tie
    correction, as scipy.stats.ranksums).
    """
    series: dict = {}
    for row in raw_rows:
        cell = (row["mode"], row["kappa"], row["psi"], row["lead_in"])
        key = (cell, row["filter"], row["scenario"], row["repeat"])
        rec = series.setdefault(key, {"mse": [], "dist": [], "root": row["root_birth"]})
        rec["mse"].append((row["step"], row["mse"]))
        rec["dist"].append((row["step"], row["tree_distance"]))

    groups: dict = {}  # (cell, filter) -> scenario -> per-run metrics, all in sorted order
    for (cell, kind, scenario, _), rec in sorted(series.items()):
        ms = [v for _, v in sorted(rec["mse"])]
        ds = [v for _, v in sorted(rec["dist"])]
        conv = convergence_time(ds, rec["root"])
        groups.setdefault((cell, kind), {}).setdefault(scenario, []).append({
            "mean_mse": float(np.mean(ms)),
            "mean_dist": float(np.mean(ds)),
            "final_quarter": float(np.mean(ds[-max(1, math.ceil(len(ds) / 4)):])),
            "conv": len(ds) if conv is None else conv,
        })

    def scenario_means(by_scenario, metric):
        return [float(np.mean([r[metric] for r in runs])) for runs in by_scenario.values()]

    out = []
    for (cell, kind), by_scenario in groups.items():
        recs = [r for runs in by_scenario.values() for r in runs]
        mode, kappa, psi, lead = cell
        row = {
            "mode": mode, "kappa": kappa, "psi": psi, "lead_in": lead,
            "filter": kind, "runs": len(recs),
            "mean_mse": float(np.mean([r["mean_mse"] for r in recs])),
            "sd_mse": float(np.std([r["mean_mse"] for r in recs], ddof=1)) if len(recs) > 1 else 0.0,
            "mean_tree_distance": float(np.mean([r["mean_dist"] for r in recs])),
            "sd_tree_distance": float(np.std([r["mean_dist"] for r in recs], ddof=1)) if len(recs) > 1 else 0.0,
            "mean_final_quarter_distance": float(np.mean([r["final_quarter"] for r in recs])),
            "mean_convergence_steps": float(np.mean([r["conv"] for r in recs])),
            "p_mse_vs_bl1": "", "p_dist_vs_bl1": "", "p_conv_vs_bl1": "",
        }
        bl1 = groups.get((cell, "bl1"))
        if kind == "mhpf" and bl1 is not None:
            for metric, col in (("mean_mse", "p_mse_vs_bl1"),
                                ("mean_dist", "p_dist_vs_bl1"),
                                ("conv", "p_conv_vs_bl1")):
                a = scenario_means(by_scenario, metric)
                b = scenario_means(bl1, metric)
                if len(a) >= 2 and len(b) >= 2:
                    row[col] = ranksum_p(a, b)
        out.append(row)
    return out


def write_csv(path, rows, fields) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in fields})


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def parse_raw_rows(rows) -> list[dict]:
    """Re-type raw CSV rows so summaries can be recomputed from disk.

    A row that lacks a column, or holds a value that does not parse as the
    column's type, raises InvalidInputError naming the row index and column.
    """
    out = []
    for i, r in enumerate(rows):
        rec = {}
        for col, kind in _RAW_TYPES.items():
            value = r.get(col)
            if value is None:
                raise InvalidInputError(f"raw row {i}: missing column {col!r}")
            try:
                rec[col] = kind(value)
            except (TypeError, ValueError):
                raise InvalidInputError(f"raw row {i}: column {col!r}: cannot read "
                                        f"{value!r} as {kind.__name__}") from None
        out.append(rec)
    return out
