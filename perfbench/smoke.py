"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For each workload in BENCHMARK.json it runs the benchmark untraced twice and
traced once, and checks that each result line names exactly the metrics
BENCHMARK.json lists for that mode, with their units and finite values, and
that two runs with one seed agree on the quality figures. It then checks that
the output check accepts a real FilterStack snapshot and rejects corrupted
copies of it. Exits non-zero with a list of what failed.
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5


def run(workload: str, trace: int) -> tuple[int, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=False)
    lines = proc.stdout.splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]), json.loads(lines[-2])["info"]
    except (IndexError, KeyError, json.JSONDecodeError):
        return proc.returncode or 1, {}, {}


def check_results(spec: dict, workloads) -> list[str]:
    failures = []
    for workload in workloads:
        seen = {}
        for trace, key in ((0, "end_to_end"), (0, "end_to_end"), (1, "per_layer")):
            code, result, info = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or not result.get("correct") or result.get("failed") != 0:
                failures.append(f"{where}: exit {code}, result {result}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != want:
                failures.append(f"{where}: metrics {got} != {want}")
            bad = [name for name, m in result["metrics"].items()
                   if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"])]
            if bad:
                failures.append(f"{where}: non-finite values for {bad}")
            quality = {k: info.get(k) for k in ("mse_mean", "tree_distance_mean",
                                                "convergence_steps_mean")}
            if trace == 0 and seen.setdefault("quality", quality) != quality:
                failures.append(f"{where}: quality {quality} != {seen['quality']} "
                                "from the same seed")
    return failures


def check_output_check() -> list[str]:
    """A real snapshot passes; each kind of corruption is caught."""
    import numpy as np
    from mhpf.datasets import discretize_uniform, gen_fixed_endpoints
    from mhpf.dynamics import build_dynamics
    from mhpf.filtration import single_linkage
    from mhpf.geometry import distance_matrix
    from mhpf.stack import FilterStack, FineObservation, start_point_sampler
    from workloads import snapshot_problems

    corpus = [discretize_uniform(t, 20) for t in gen_fixed_endpoints(5, np.random.default_rng(0))]
    tree = single_linkage(distance_matrix(corpus), member_ids=[t.id for t in corpus])
    dyn = build_dynamics(tree, corpus, kappa=0.3, epsilon_floor=0.5)
    stack = FilterStack(tree, dyn, {c: 1.0 / tree.leaf_count for c in tree.leaves()},
                        start_point_sampler(tree, corpus), 50, 0.01, seed=1)
    snap = stack.step([FineObservation(corpus[0].points[1])])

    failures = []
    if snapshot_problems(snap, tree):
        failures.append(f"a real snapshot fails the check: {snapshot_problems(snap, tree)}")
    unnormalized = copy.deepcopy(snap)
    unnormalized["levels"][0]["classes"][0]["prob"] += 1e-6
    not_finite = copy.deepcopy(snap)
    not_finite["point_estimate"][0] = float("nan")
    dead_map = copy.deepcopy(snap)
    dead_map["map_class"][0]["class_id"] = tree.root  # level 0: only leaves are alive
    for label, bad in (("probabilities not summing to 1", unnormalized),
                       ("non-finite point estimate", not_finite),
                       ("MAP class not alive at its level", dead_map)):
        if not snapshot_problems(bad, tree):
            failures.append(f"the check accepts a snapshot with {label}")
    return failures


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    failures = (check_results(spec, [w["name"] for w in spec["workloads"]])
                + check_output_check())
    for f in failures:
        print("FAIL", f)
    print("smoke: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
