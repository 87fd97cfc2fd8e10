"""Command-line entry point: generate data, cluster, filter, evaluate."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing

from . import datasets, evaluation
from .errors import GenerationError, InvalidInputError
from .filtration import ClusterTree, single_linkage
from .geometry import distance_matrix, load_trajectories, save_trajectories
from .obsgen import load_observations
from .seeding import PHASE_DATA, substream
from .stack import FilterStack


def _add_gen(sub):
    p = sub.add_parser("gen", help="generate a trajectory corpus")
    p.add_argument("--dataset", required=True,
                   choices=["junction", "fixed", "obstacle", "walk", "harbor"],
                   help="which procedural corpus to generate")
    p.add_argument("--out", required=True, help="output trajectory JSONL path")
    p.add_argument("--seed", type=int, default=0, help="generation seed")
    p.add_argument("--n", type=int, default=None, help="number of trajectories")
    p.add_argument("--n-points", type=int, default=100,
                   help="uniform discretization point count")
    p.add_argument("--branches", type=int, default=2, help="junction: branch count")
    p.add_argument("--jitter", type=float, default=0.15, help="junction: positional jitter")
    p.add_argument("--grid", default=None, help="walk: density grid file (ascii or pgm)")
    p.add_argument("--starts", default=None,
                   help="walk: start cells as 'col,row;col,row;...'")
    p.add_argument("--max-steps", type=int, default=400, help="walk: maximum walk length")
    p.add_argument("--persistence", type=float, default=0.8,
                   help="walk: probability of keeping the previous heading")
    p.add_argument("--density-exponent", type=float, default=1.0,
                   help="walk: density weighting exponent")
    return p


def cmd_gen(args) -> int:
    rng = substream(args.seed, PHASE_DATA)
    if args.dataset != "walk":
        raw = datasets.generate(args.dataset, args.n, rng, args.n_points, args.branches,
                                args.jitter)
    else:
        if not args.grid or not args.starts:
            raise InvalidInputError("--dataset walk needs --grid and --starts")
        grid = datasets.load_density_grid(args.grid)
        starts = []
        for tok in args.starts.split(";"):
            try:
                c, r = tok.split(",")
                starts.append((int(c), int(r)))
            except ValueError:
                raise InvalidInputError(f"--starts: {tok!r} is not a 'col,row' cell") from None
        cfg = datasets.WalkConfig(
            n_trajectories=args.n or len(starts), starts=starts,
            max_steps=args.max_steps, direction_persistence=args.persistence,
            density_exponent=args.density_exponent)
        raw = datasets.walk_from_density(grid, cfg, rng)
    corpus = [datasets.discretize_uniform(t, args.n_points) for t in raw if len(t) >= 2]
    save_trajectories(args.out, corpus)
    print(f"wrote {len(corpus)} trajectories to {args.out}")
    return 0


def _add_cluster(sub):
    p = sub.add_parser("cluster", help="cluster a corpus into a filtration tree")
    p.add_argument("--trajectories", required=True, help="input trajectory JSONL")
    p.add_argument("--out-tree", required=True, help="output tree JSON path")
    p.add_argument("--dendrogram", default=None, help="optional text dendrogram path")
    return p


def cmd_cluster(args) -> int:
    corpus = load_trajectories(args.trajectories)
    tree = single_linkage(distance_matrix(corpus), member_ids=[t.id for t in corpus])
    tree.save(args.out_tree)
    if args.dendrogram:
        with open(args.dendrogram, "w") as fh:
            fh.write(tree.render_text() + "\n")
    print(f"clustered {len(corpus)} trajectories; root birth {tree.root_birth:g}; "
          f"tree written to {args.out_tree}")
    return 0


def _add_filter(sub):
    p = sub.add_parser("filter", help="run the filter stack over an observation stream")
    p.add_argument("--trajectories", required=True, help="corpus JSONL")
    p.add_argument("--tree", required=True, help="cluster tree JSON")
    p.add_argument("--out", required=True, help="output snapshot JSONL")
    p.add_argument("--seed", type=int, default=0, help="run seed")
    p.add_argument("--n-particles", type=int, default=100)
    p.add_argument("--depletion", type=float, default=0.01,
                   help="fraction of particles randomized each step")
    p.add_argument("--kappa", type=float, default=0.3, help="dynamics noise fraction")
    p.add_argument("--psi", type=float, default=0.01, help="observation noise fraction")
    p.add_argument("--epsilon-floor", type=float, default=None,
                   help="minimum dynamics neighborhood radius")
    p.add_argument("--truth-id", default=None,
                   help="corpus trajectory to generate observations from")
    p.add_argument("--observations", default=None,
                   help="replay an observation JSONL instead of generating one")
    p.add_argument("--mode", choices=["mixed", "lead_in"], default="mixed")
    p.add_argument("--coarse-prob", type=float, default=0.0,
                   help="mixed mode: per-step coarse observation probability")
    p.add_argument("--coarse-level", type=float, default=None,
                   help="tree level for coarse observations (default: auto)")
    p.add_argument("--lead-in", type=float, default=0.0,
                   help="lead_in mode: fine-only fraction of the trial")
    p.add_argument("--levels", default=None,
                   help="comma-separated levels to include in snapshots")
    return p


def cmd_filter(args) -> int:
    corpus = load_trajectories(args.trajectories)
    tree = ClusterTree.load(args.tree)
    truth = None
    if not args.observations:
        if not args.truth_id:
            raise InvalidInputError("need --truth-id or --observations")
        truth = {t.id: t for t in corpus}.get(args.truth_id)
        if truth is None:
            raise InvalidInputError(f"unknown trajectory id {args.truth_id!r}")
    scenario = evaluation.Scenario(0, corpus, tree, truth, None, args.epsilon_floor)
    params = evaluation.RunParams(
        n_particles=args.n_particles, depletion=args.depletion, kappa=args.kappa,
        psi=args.psi, mode=args.mode, coarse_prob=args.coarse_prob,
        coarse_level=args.coarse_level, lead_in_fraction=args.lead_in)
    if args.observations:
        plan = load_observations(args.observations)
    else:
        plan = evaluation.make_observation_plan(scenario, params, args.seed, repeat=0)
    stack = FilterStack(tree, *evaluation.filter_args(scenario, params, args.seed))
    levels = None
    if args.levels:
        levels = []
        for tok in args.levels.split(","):
            try:
                levels.append(float(tok))
            except ValueError:
                raise InvalidInputError(f"--levels: {tok!r} is not a number") from None
    with open(args.out, "w") as fh:
        for obs in plan:
            snap = stack.step(obs, snapshot_levels=levels)
            fh.write(json.dumps(snap) + "\n")
    print(f"wrote {len(plan)} snapshots to {args.out}")
    return 0


def _add_eval(sub):
    p = sub.add_parser("eval", help="run the experiment harness")
    p.add_argument("--config", default=None, help="experiment config JSON")
    p.add_argument("--out-raw", required=True, help="per-step metrics CSV path")
    p.add_argument("--out-summary", required=True, help="per-cell summary CSV path")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--workers", type=int, default=None, help="override worker count")
    p.add_argument("--scenarios", type=int, default=None, help="override scenario count")
    p.add_argument("--repeats", type=int, default=None, help="override repeat count")
    return p


def _fits(value, kind) -> bool:
    """Whether a JSON value has a config field's type; a float field also takes an int."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _experiment_config(path) -> evaluation.ExperimentConfig:
    """An ExperimentConfig from a JSON object; InvalidInputError names a bad key.

    Each value, or each element of a list field, must have the field's type.
    """
    with open(path) as fh:
        cfg_dict = json.load(fh)
    if not isinstance(cfg_dict, dict):
        raise InvalidInputError(f"{path}: expected a JSON object, got {type(cfg_dict).__name__}")
    fields = {f.name: f for f in dataclasses.fields(evaluation.ExperimentConfig)}
    hints = typing.get_type_hints(evaluation.ExperimentConfig)
    for key, value in cfg_dict.items():
        if key not in fields:
            raise InvalidInputError(f"{path}: unknown key {key!r}")
        default = fields[key].default
        if isinstance(default, tuple):  # filters, kappas, psis, lead_in_fractions
            if not isinstance(value, list):
                raise InvalidInputError(f"{path}: {key!r} must be a list, got {value!r}")
            kinds, items = (type(default[0]),), value
            cfg_dict[key] = tuple(value)
        else:
            kinds, items = typing.get_args(hints[key]) or (hints[key],), [value]
        for item in items:
            if not any(_fits(item, kind) for kind in kinds):
                names = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
                raise InvalidInputError(f"{path}: {key!r} takes {names}, got {item!r}")
    return evaluation.ExperimentConfig(**cfg_dict)


def cmd_eval(args) -> int:
    cfg = _experiment_config(args.config) if args.config else evaluation.ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.workers is not None:
        cfg.workers = args.workers
    if args.scenarios is not None:
        cfg.n_scenarios = args.scenarios
    if args.repeats is not None:
        cfg.n_repeats = args.repeats
    raw, summary = evaluation.run_experiment(cfg)
    evaluation.write_csv(args.out_raw, raw, evaluation.RAW_FIELDS)
    evaluation.write_csv(args.out_summary, summary, evaluation.SUMMARY_FIELDS)
    for row in summary:
        print(f"mode={row['mode']} kappa={row['kappa']} psi={row['psi']} "
              f"lead_in={row['lead_in']} filter={row['filter']} "
              f"mse={row['mean_mse']:.4g} dist={row['mean_tree_distance']:.4g} "
              f"conv={row['mean_convergence_steps']:.4g}")
    print(f"raw rows: {len(raw)} -> {args.out_raw}; summary rows: {len(summary)} "
          f"-> {args.out_summary}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhpf",
        description="Multiscale hierarchy of particle filters: cluster trajectory "
                    "corpora into a filtration tree and run consistent multi-level "
                    "state estimation over fine and coarse observations.")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_gen(sub)
    _add_cluster(sub)
    _add_filter(sub)
    _add_eval(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen": cmd_gen, "cluster": cmd_cluster,
                "filter": cmd_filter, "eval": cmd_eval}
    try:
        return handlers[args.command](args)
    except (InvalidInputError, GenerationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
