"""mhpf benchmark entry point; perfbench/README.md describes the workloads.

    python3 perfbench/run.py --workload track-obstacle --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run from the repository root; mhpf is imported from its `src` directory.
Untraced runs (--trace 0) print the end-to-end metrics, traced runs
(--trace 1) the per-layer ones and write their spans under
`.perfbench-out/`. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is non-zero
if any trial failed its output checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"


def import_workloads():
    """Import the benchmark against the mhpf sources of this checkout only."""
    if not (SRC / "mhpf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mhpf package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mhpf
    if Path(mhpf.__file__).resolve().parent != SRC / "mhpf":
        sys.exit(f"perfbench: imported mhpf from {mhpf.__file__}, not {SRC}")
    import workloads
    return workloads


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run_one(wk, args) -> int:
    wl = wk.workload(args.workload, args.size)
    if args.trace:
        path = OUT / f"{wl.name}-seed{args.seed}.trace.jsonl"
        outcome = wk.run_traced(wl, args.seed, path)
        units = wk.PER_LAYER
        extra_units = wk.SWEEP_ONLY if wl.sweep else {}
    else:
        outcome = wk.run_timed(wl, args.seed, args.seconds)
        units = wk.END_TO_END
        extra_units = {}
    print(f"# {wl.name} seed={args.seed} trace={args.trace} "
          f"attempted={outcome.attempted} failed={outcome.failed}")
    for name, unit in units.items():
        print(f"  {name:32s} {outcome.metrics[name]:>16.6g} {unit}")
    for name, unit in extra_units.items():
        print(f"  {name:32s} {outcome.info[name]:>16.6g} {unit}")
    if not args.trace:
        print(f"  {'step_ms_p50':32s} {outcome.info['step_ms_p50']:>16.6g} ms")
        for name in wk.QUALITY:
            print(f"  {name:32s} {outcome.info.get(name, float('nan')):>16.6g} "
                  f"{wk.PER_LAYER[name]}")
        print(f"  {'error_rate':32s} {outcome.info['error_rate']:>16.6g} ratio")
    print(json.dumps({"info": outcome.info}))
    metrics = {name: {"value": outcome.metrics[name], "unit": unit}
               for name, unit in units.items()}
    correct = outcome.failed == 0
    print(result_line(correct, outcome.attempted, outcome.failed, metrics))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload BENCHMARK.json lists, in its own process, one after the other."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            child = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return proc.returncode or 1
        correct = correct and child["correct"] and proc.returncode == 0
        attempted += child["attempted"]
        failed += child["failed"]
        metrics.update({f"{name}/{k}": v for k, v in child["metrics"].items()})
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def main(argv=None) -> int:
    wk = import_workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*wk.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True,
                    help="workload seed: picks the held-out truths")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="filter for at least this long (untraced runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smoke-test sizes")
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(wk, args)


if __name__ == "__main__":
    sys.exit(main())
