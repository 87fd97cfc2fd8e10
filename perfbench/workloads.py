"""The benchmark's workloads: set-up, the timed filtering phase, output checks.

Each workload runs closed loop in one process with one client: a trial
starts when the previous one has returned, and the harness runs with
`workers=1`. Every workload uses the harness's default corpus
(`CORPUS_SEED`); the workload seed (`--seed`) picks the held-out truths, and
the filters draw from their own root seed, `FILTER_SEED` plus the trial's
pass number. A seed therefore names the same trials on every commit.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np
import scipy

import mhpf.stack as stack_module
from mhpf import check_consistency, evaluation, geometry
from mhpf.dynamics import ClassDynamics
from mhpf.evaluation import ExperimentConfig, RunParams
from mhpf.filtration import ClusterTree
from mhpf.stack import CoarseObservation, FilterStack, FineObservation

from tracing import Tracer, patched

CORPUS_SEED = 7
FILTER_SEED = 1

# name -> unit. End-to-end metrics come from untraced runs (--trace 0).
END_TO_END = {
    "setup_s": "s",
    "step_ms_mean": "ms",
    "step_ms_p90": "ms",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# name -> unit. Reported by traced runs (--trace 1), on every workload.
PER_LAYER = {
    "datasets.generate_s": "s",
    "geometry.distance_matrix_s": "s",
    "geometry.frechet_cells": "count",
    "geometry.cells_per_s": "1/s",
    "filtration.single_linkage_s": "s",
    "filtration.nodes": "count",
    "filtration.query_calls": "count",
    "filtration.query_s": "s",
    "dynamics.build_s": "s",
    "dynamics.samples_total": "count",
    "dynamics.step_batch_calls": "count",
    "dynamics.step_batch_s": "s",
    "dynamics.particles_advanced": "count",
    "dynamics.pair_evals": "count",
    "dynamics.extrapolated_ratio": "ratio",
    "seeding.substream_calls": "count",
    "seeding.substream_s": "s",
    "stack.construct_s": "s",
    "stack.step_s": "s",
    "stack.self_s": "s",
    "stack.uniform_reset_ratio": "ratio",
    "obsgen.plan_s": "s",
    "obsgen.coarse_obs": "count",
    "evaluation.mhpf_trial_s": "s",
    "trace.overhead_ratio": "ratio",
    "mse_mean": "sq_units",
    "tree_distance_mean": "tree_units",
    "convergence_steps_mean": "steps",
}

# Printed by traced runs of the sweep only: the track workloads run neither
# baseline nor the harness summary, so these would read 0 there.
SWEEP_ONLY = {
    "evaluation.bl1_trial_s": "s",
    "evaluation.bl2_trial_s": "s",
    "evaluation.summarize_s": "s",
}

QUALITY = ("mse_mean", "tree_distance_mean", "convergence_steps_mean")

TRACK_PARAMS = RunParams(n_particles=100, depletion=0.01, kappa=0.3, psi=0.01,
                         mode="mixed", coarse_prob=0.5)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus_kind: str    # an evaluation.load_corpus kind
    corpus_n: int       # trajectories generated
    n_points: int       # points per trajectory; a trial has n_points - 1 steps
    scenarios: int      # held-out truths in one pass
    # Timed runs time one fresh set-up every this many trials: every trial
    # where set-ups are cheap next to trials, fewer where they are not.
    setup_every: int
    sweep: bool = False  # run evaluation.run_experiment instead of bare trials


WORKLOADS = {w.name: w for w in (
    Workload("track-obstacle", "obstacle", 33, 100, scenarios=16, setup_every=2),
    Workload("sweep-fixed-leadin", "fixed", 13, 100, scenarios=5, setup_every=1, sweep=True),
)}

# Smoke-test sizes: the same code paths in a second or two per workload.
TINY = {
    "track-obstacle": dict(corpus_n=8, n_points=20, scenarios=2),
    "sweep-fixed-leadin": dict(n_points=20, scenarios=2),
}


def workload(name: str, size: str = "full") -> Workload:
    wl = WORKLOADS[name]
    return replace(wl, **TINY[name]) if size == "tiny" else wl


def experiment_config(wl: Workload) -> ExperimentConfig:
    """The harness config: corpus fields for every workload, the rest for the sweep."""
    return ExperimentConfig(
        corpus_kind=wl.corpus_kind, corpus_n=wl.corpus_n, corpus_seed=CORPUS_SEED,
        n_points=wl.n_points, n_scenarios=wl.scenarios, n_repeats=2,
        seed=FILTER_SEED, filters=("mhpf", "bl1", "bl2"), kappas=(0.3,),
        psis=(0.01,), mode="lead_in", lead_in_fractions=(0.0, 0.5),
        n_particles=100, depletion=0.01, workers=1)


# -- output checks -------------------------------------------------------------


def snapshot_problems(snap: dict, tree, atol: float = 1e-9) -> list[str]:
    """What is wrong with one FilterStack snapshot, if anything.

    Each level's class probabilities must sum to 1 within `atol`, the point
    estimate must be finite, and each MAP class must be alive at its level.
    """
    problems = []
    t = snap.get("t")
    for level in snap["levels"]:
        total = math.fsum(c["prob"] for c in level["classes"])
        if not abs(total - 1.0) <= atol:
            problems.append(f"t={t} level {level['b']}: probabilities sum to {total!r}")
    if not all(math.isfinite(x) for x in snap["point_estimate"]):
        problems.append(f"t={t}: point estimate {snap['point_estimate']} is not finite")
    for entry in snap["map_class"]:
        node = tree.nodes.get(entry["class_id"])
        if node is None or not node.birth <= entry["b"] < node.death:
            problems.append(f"t={t}: MAP class {entry['class_id']} is not alive "
                            f"at level {entry['b']}")
    return problems


def series_problems(mses, dists, steps: int) -> list[str]:
    if len(mses) != steps or len(dists) != steps:
        return [f"{len(mses)} errors and {len(dists)} distances for {steps} steps"]
    if not all(math.isfinite(v) and v >= 0 for v in [*mses, *dists]):
        return ["negative or non-finite error or distance"]
    return []


# -- step recording and tracing ------------------------------------------------


class Recorder:
    """Times each FilterStack.step and files its snapshot under its trial.

    The trial key (lead-in fraction, scenario index, repeat) comes from the
    `make_observation_plan` call the harness makes at the start of a trial.
    With a tracer attached, checks run outside its spans. With a `set_up`
    function, every `setup_every`-th trial first times one fresh set-up
    (thrown away); the passes leave that time out of their own.
    """

    def __init__(self, tracer: Tracer | None = None, set_up=None, setup_every: int = 1):
        self.tracer = tracer
        self.set_up = set_up
        self.setup_every = setup_every
        self.setup_s: list[float] = []
        self.trials_started = 0
        self.step_s: list[float] = []
        self.trial = None
        self.snapshots: dict = {}
        self.problems: dict = {}
        self.check_s = 0.0

    def patches(self):
        step = FilterStack.step
        plan = evaluation.make_observation_plan

        def timed_step(stack, *args, **kwargs):
            start = perf_counter()
            snap = step(stack, *args, **kwargs)
            self.step_s.append(perf_counter() - start)
            self.snapshots.setdefault(self.trial, []).append((stack.tree, snap))
            return snap

        def keyed_plan(scenario, params, seed, repeat, *args, **kwargs):
            if self.set_up is not None and self.trials_started % self.setup_every == 0:
                start = perf_counter()
                self.set_up()
                self.setup_s.append(perf_counter() - start)
            self.trials_started += 1
            self.trial = (params.lead_in_fraction, scenario.index, repeat)
            if self.tracer is not None:
                self.tracer.trial = list(self.trial)
            return plan(scenario, params, seed, repeat, *args, **kwargs)

        return [(FilterStack, "step", timed_step),
                (evaluation, "make_observation_plan", keyed_plan)]

    @contextmanager
    def checking(self):
        start = perf_counter()
        with self.tracer.excluded() if self.tracer is not None else nullcontext():
            yield
        self.check_s += perf_counter() - start

    def trial_problems(self, key, steps: int) -> list[str]:
        snaps = self.snapshots.pop(key, [])
        problems = self.problems.pop(key, [])
        if len(snaps) != steps:
            problems.append(f"{len(snaps)} snapshots for {steps} steps")
        for tree, snap in snaps:
            problems += snapshot_problems(snap, tree)
        return problems


def trace_patches(tracer: Tracer, rec: Recorder, stacks: list):
    """Span wrappers around the calls the benchmark makes into each layer.

    Call after the recorder's patches are in place, so that the stack.step
    span encloses the recorder's timing.
    """
    wrap, count = tracer.wrap, tracer.count

    def cells(args, _):
        lengths = [len(t) for t in args[0]]
        total = sum(lengths)
        count("geometry.frechet_cells", (total * total - sum(n * n for n in lengths)) // 2)

    def advanced(args, out):
        dyn, zs = args[0], args[1]
        count("dynamics.particles_advanced", len(zs))
        count("dynamics.pair_evals", len(zs) * len(dyn.positions))
        count("dynamics.extrapolated", int(np.sum(out[1])))

    def stepped(args, _):
        stack = args[0]
        obs = args[1] if len(args) > 1 else ()
        count("stack.updates", 1 if isinstance(obs, (CoarseObservation, FineObservation))
              else len(obs))
        with rec.checking():
            try:
                check_consistency(stack)
            except AssertionError as exc:
                rec.problems.setdefault(rec.trial, []).append(f"check_consistency: {exc}")

    def planned(args, plan):
        count("obsgen.coarse_obs",
              sum(isinstance(o, CoarseObservation) for step_obs in plan for o in step_obs))

    return [
        (evaluation, "load_corpus", wrap(evaluation.load_corpus, "datasets.generate")),
        (geometry, "distance_matrix",
         wrap(geometry.distance_matrix, "geometry.distance_matrix", cells)),
        (evaluation, "single_linkage",
         wrap(evaluation.single_linkage, "filtration.single_linkage",
              lambda args, tree: count("filtration.nodes", len(tree.nodes)))),
        (evaluation, "build_dynamics",
         wrap(evaluation.build_dynamics, "dynamics.build",
              lambda args, dyn: count("dynamics.samples_total",
                                      sum(len(d.positions) for d in dyn.values())))),
        (evaluation, "observation_plan", wrap(evaluation.observation_plan, "obsgen.plan", planned)),
        (stack_module, "substream", wrap(stack_module.substream, "seeding.substream")),
        (evaluation, "substream", wrap(evaluation.substream, "seeding.substream")),
        (ClusterTree, "alive_at", wrap(ClusterTree.alive_at, "filtration.query")),
        (ClusterTree, "tree_class_distance",
         wrap(ClusterTree.tree_class_distance, "filtration.query")),
        (ClusterTree, "ancestor_alive_at", wrap(ClusterTree.ancestor_alive_at, "filtration.query")),
        (ClassDynamics, "step_batch",
         wrap(ClassDynamics.step_batch, "dynamics.step_batch", advanced)),
        (FilterStack, "__init__",
         wrap(FilterStack.__init__, "stack.construct", lambda args, _: stacks.append(args[0]))),
        (FilterStack, "step", wrap(FilterStack.step, "stack.step", stepped)),
        (evaluation, "run_mhpf", wrap(evaluation.run_mhpf, "evaluation.mhpf_trial")),
        # run_experiment looks its filters up in this table.
        (evaluation, "_RUNNERS", {kind: wrap(fn, f"evaluation.{kind}_trial")
                                  for kind, fn in evaluation._RUNNERS.items()}),
        (evaluation, "summarize", wrap(evaluation.summarize, "evaluation.summarize")),
    ]


# -- set-up and passes -----------------------------------------------------------


@dataclass
class Setup:
    config: ExperimentConfig
    corpus: list
    scenarios: list


def set_up(wl: Workload, seed: int) -> Setup:
    """Corpus, all-pairs Frechet matrix, then tree and dynamics per held-out truth."""
    cfg = experiment_config(wl)
    corpus = evaluation.load_corpus(cfg)
    full = geometry.distance_matrix(corpus)
    picks = evaluation.select_scenarios(len(corpus), wl.scenarios, seed)
    scenarios = [evaluation.build_scenario(corpus, i, full_matrix=full, index=i)
                 for i in picks]
    return Setup(cfg, corpus, scenarios)


@dataclass
class PassResult:
    seconds: float = 0.0   # wall time inside the filtering calls
    attempted: int = 0
    failed: int = 0
    # (errors, distances, convergence steps) of each MHPF trial that passed
    trials: list = field(default_factory=list)

    def add(self, other: "PassResult") -> None:
        self.seconds += other.seconds
        self.attempted += other.attempted
        self.failed += other.failed
        self.trials += other.trials


def _failed(result: PassResult, key, problems) -> None:
    result.failed += 1
    print(f"trial {key} failed: " + "; ".join(problems[:5]), file=sys.stderr)


def track_pass(setup: Setup, filter_seed: int, rec: Recorder, scenarios) -> PassResult:
    """Each given held-out truth tracked over its whole length by the MHPF stack."""
    out = PassResult()
    for sc in scenarios:
        steps = len(sc.truth) - 1
        start, set_up_s = perf_counter(), sum(rec.setup_s)
        try:
            res = evaluation.run_mhpf(sc, TRACK_PARAMS, filter_seed)
        except Exception:
            traceback.print_exc()
            res = None
        out.seconds += perf_counter() - start - (sum(rec.setup_s) - set_up_s)
        out.attempted += 1
        key = (TRACK_PARAMS.lead_in_fraction, sc.index, 0)
        with rec.checking():
            if res is None:
                problems = ["raised"]
                rec.trial_problems(key, steps)
            else:
                problems = (series_problems(res.mse, res.tree_distance, steps)
                            + rec.trial_problems(key, steps))
        if problems:
            _failed(out, key, problems)
        else:
            conv = steps if res.convergence_step is None else res.convergence_step
            out.trials.append((res.mse, res.tree_distance, conv))
    return out


def sweep_pass(setup: Setup, filter_seed: int, rec: Recorder) -> PassResult:
    """One evaluation.run_experiment call; a trial is one (cell, scenario, repeat)."""
    cfg = replace(setup.config, seed=filter_seed)
    keys = [(lead, sc.index, rep) for lead in cfg.lead_in_fractions
            for sc in setup.scenarios for rep in range(cfg.n_repeats)]
    out = PassResult(attempted=len(keys))
    start, set_up_s = perf_counter(), sum(rec.setup_s)
    try:
        raw, summary = evaluation.run_experiment(cfg, corpus=setup.corpus,
                                                 scenarios=setup.scenarios)
    except Exception:
        traceback.print_exc()
        raw = summary = None
    out.seconds = perf_counter() - start - (sum(rec.setup_s) - set_up_s)
    with rec.checking():
        if raw is None:
            for key in keys:
                _failed(out, key, ["run_experiment raised"])
            return out
        summary_ok = (json.dumps(evaluation.summarize(raw), sort_keys=True)
                      == json.dumps(summary, sort_keys=True))
        rows: dict = {}
        for r in raw:
            per_filter = rows.setdefault((r["lead_in"], r["scenario"], r["repeat"]), {})
            per_filter.setdefault(r["filter"], []).append(r)
        steps = {sc.index: len(sc.truth) - 1 for sc in setup.scenarios}
        roots = {sc.index: sc.tree.root_birth for sc in setup.scenarios}
        for key in keys:
            problems = [] if summary_ok else ["summary differs from summarize(raw)"]
            series = {}
            for kind in cfg.filters:
                got = sorted(rows.get(key, {}).get(kind, []), key=lambda r: r["step"])
                series[kind] = ([r["mse"] for r in got], [r["tree_distance"] for r in got])
                problems += [f"{kind}: {p}" for p in series_problems(*series[kind], steps[key[1]])]
            problems += rec.trial_problems(key, steps[key[1]])
            if problems:
                _failed(out, key, problems)
                continue
            mses, dists = series["mhpf"]
            conv = evaluation.convergence_time(dists, roots[key[1]])
            out.trials.append((mses, dists, len(dists) if conv is None else conv))
    return out


def run_pass(wl: Workload, setup: Setup, n: int, rec: Recorder) -> PassResult:
    """Pass n: a whole sweep, or every track trial (n = 0) or one more (n > 0)."""
    if wl.sweep:
        return sweep_pass(setup, FILTER_SEED + n, rec)
    scenarios = setup.scenarios if n == 0 else [setup.scenarios[n % len(setup.scenarios)]]
    return track_pass(setup, FILTER_SEED + n, rec, scenarios)


def quality(result: PassResult) -> dict:
    """MHPF error, MAP tree distance and convergence, pooled over the pass's trials."""
    if not result.trials:
        return dict.fromkeys(QUALITY, math.nan)
    mses = [v for trial in result.trials for v in trial[0]]
    dists = [v for trial in result.trials for v in trial[1]]
    return {"mse_mean": float(np.mean(mses)),
            "tree_distance_mean": float(np.mean(dists)),
            "convergence_steps_mean": float(np.mean([t[2] for t in result.trials]))}


def shape(wl: Workload, seed: int, setup: Setup) -> dict:
    return {
        "workload": wl.name, "seed": seed, "filter_seed": FILTER_SEED,
        "M": len(setup.corpus), "points": wl.n_points,
        "tree_nodes": [len(sc.tree.nodes) for sc in setup.scenarios],
        "N": TRACK_PARAMS.n_particles,
        "samples_total": sum(len(d.positions) for sc in setup.scenarios
                             for d in sc.dynamics_base.values()),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- runs --------------------------------------------------------------------------


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict         # the metrics this mode reports, by name
    info: dict            # workload shape, quality and other printed figures


def run_timed(wl: Workload, seed: int, seconds: float) -> Outcome:
    """Set up, then filter for at least `seconds`, timing further set-ups on the way.

    The first pass runs every held-out truth and gives the quality figures;
    further track trials, or further sweeps, run until the time is spent.
    One fresh set-up is timed every `wl.setup_every` trials, so that the
    set-up samples are spread over the whole run, as the step samples are,
    and see the same machine conditions.
    """
    start = perf_counter()
    setup = set_up(wl, seed)
    first_setup_s = perf_counter() - start
    rec = Recorder(set_up=lambda: set_up(wl, seed), setup_every=wl.setup_every)
    rec.setup_s.append(first_setup_s)
    with patched(rec.patches()):
        first = run_pass(wl, setup, 0, rec)
        total, passes = PassResult(), 1
        total.add(first)
        while total.seconds < seconds:
            total.add(run_pass(wl, setup, passes, rec))
            passes += 1
    step_ms = np.asarray(rec.step_s or [math.nan]) * 1e3
    metrics = {
        "setup_s": float(np.median(rec.setup_s)),
        "step_ms_mean": float(np.mean(step_ms)),
        "step_ms_p90": float(np.percentile(step_ms, 90)),
        "trials_per_s": (total.attempted - total.failed) / total.seconds,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = shape(wl, seed, setup)
    info.update(steps_timed=len(rec.step_s), step_ms_p50=float(np.percentile(step_ms, 50)),
                trials=total.attempted, passes=passes, filter_s=total.seconds,
                setup_runs_s=rec.setup_s, error_rate=total.failed / total.attempted,
                **quality(first))
    return Outcome(total.attempted, total.failed, metrics, info)


def run_traced(wl: Workload, seed: int, trace_path) -> Outcome:
    """The set-up and first pass, once untraced and once with spans.

    The untraced and traced runs alternate set-up by set-up and trial by
    trial (the sweep: pass by pass), each on its own set-up, so that both
    see the same machine conditions. They must give identical results; the
    ratio of their wall times, output checks excluded, is the tracing
    overhead.
    """
    tracer = Tracer()
    recs = {False: Recorder(), True: Recorder(tracer)}
    wall_s = {False: 0.0, True: 0.0}
    stacks: list = []

    def timed(traced: bool, fn):
        rec = recs[traced]
        start, checks = perf_counter(), rec.check_s
        with patched(rec.patches()), \
                patched(trace_patches(tracer, rec, stacks) if traced else []):
            out = fn(rec)
        wall_s[traced] += perf_counter() - start - (rec.check_s - checks)
        return out

    setups = {t: timed(t, lambda rec: set_up(wl, seed)) for t in (False, True)}
    results = {False: PassResult(), True: PassResult()}
    for i in range(1 if wl.sweep else wl.scenarios):
        for t in (False, True):
            if wl.sweep:
                part = timed(t, lambda rec: sweep_pass(setups[t], FILTER_SEED, rec))
            else:
                sc = setups[t].scenarios[i]
                part = timed(t, lambda rec: track_pass(setups[t], FILTER_SEED, rec, [sc]))
            results[t].add(part)
    plain, traced = results[False], results[True]
    setup = setups[True]

    failed = plain.failed + traced.failed
    if quality(plain) != quality(traced):
        print("traced and untraced passes disagree", file=sys.stderr)
        failed = max(failed, 1)

    total, selfs, counts = tracer.total_s, tracer.self_s, tracer.counts

    def mean_s(name):
        calls = counts.get(name + ".calls", 0)
        return total[name] / calls if calls else 0.0

    particles = counts.get("dynamics.particles_advanced", 0)
    updates = counts.get("stack.updates", 0)
    resets = sum(s.diagnostics["uniform_resets"] for s in stacks)
    metrics = {
        "datasets.generate_s": total.get("datasets.generate", 0.0),
        "geometry.distance_matrix_s": total.get("geometry.distance_matrix", 0.0),
        "geometry.frechet_cells": counts.get("geometry.frechet_cells", 0),
        "geometry.cells_per_s": (counts.get("geometry.frechet_cells", 0)
                                 / total["geometry.distance_matrix"]),
        "filtration.single_linkage_s": total.get("filtration.single_linkage", 0.0),
        "filtration.nodes": counts.get("filtration.nodes", 0),
        "filtration.query_calls": counts.get("filtration.query.calls", 0),
        "filtration.query_s": total.get("filtration.query", 0.0),
        "dynamics.build_s": total.get("dynamics.build", 0.0),
        "dynamics.samples_total": counts.get("dynamics.samples_total", 0),
        "dynamics.step_batch_calls": counts.get("dynamics.step_batch.calls", 0),
        "dynamics.step_batch_s": total.get("dynamics.step_batch", 0.0),
        "dynamics.particles_advanced": particles,
        "dynamics.pair_evals": counts.get("dynamics.pair_evals", 0),
        "dynamics.extrapolated_ratio": (counts.get("dynamics.extrapolated", 0) / particles
                                        if particles else 0.0),
        "seeding.substream_calls": counts.get("seeding.substream.calls", 0),
        "seeding.substream_s": total.get("seeding.substream", 0.0),
        "stack.construct_s": total.get("stack.construct", 0.0),
        "stack.step_s": total.get("stack.step", 0.0),
        "stack.self_s": selfs.get("stack.step", 0.0),
        "stack.uniform_reset_ratio": resets / updates if updates else 0.0,
        "obsgen.plan_s": total.get("obsgen.plan", 0.0),
        "obsgen.coarse_obs": counts.get("obsgen.coarse_obs", 0),
        "evaluation.mhpf_trial_s": mean_s("evaluation.mhpf_trial"),
        "trace.overhead_ratio": wall_s[True] / wall_s[False],
        **quality(traced),
    }
    info = shape(wl, seed, setup)
    info.update(trials=traced.attempted, steps_timed=len(recs[True].step_s),
                spans=len(tracer.spans),
                untraced_s=wall_s[False], traced_s=wall_s[True],
                layer_self_s=tracer.layer_self_s(), trace_file=trace_path.name)
    if wl.sweep:
        info.update({"evaluation.bl1_trial_s": mean_s("evaluation.bl1_trial"),
                     "evaluation.bl2_trial_s": mean_s("evaluation.bl2_trial"),
                     "evaluation.summarize_s": total.get("evaluation.summarize", 0.0)})
    tracer.write(trace_path, {"metrics": metrics, **info})
    return Outcome(plain.attempted + traced.attempted, failed, metrics, info)
