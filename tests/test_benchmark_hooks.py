"""The benchmark's traced run still reaches every layer it wraps.

`perfbench/workloads.py` times layers by swapping module attributes (for
example `evaluation.build_dynamics` and `evaluation._RUNNERS`) for wrappers. A
refactor that stops calling through one of those names silently zeroes its
figure; these tests make that a failure.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

HOOKED = ["geometry.distance_matrix_s", "geometry.cells_per_s", "dynamics.build_s",
          "dynamics.samples_total", "dynamics.step_batch_calls", "dynamics.pair_evals",
          "filtration.single_linkage_s", "filtration.query_calls", "obsgen.plan_s",
          "seeding.substream_calls", "stack.self_s", "evaluation.mhpf_trial_s"]
SWEEP_HOOKED = ["evaluation.bl1_trial_s", "evaluation.bl2_trial_s", "evaluation.summarize_s"]


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.mark.parametrize("name", ["track-obstacle", "sweep-fixed-leadin"])
def test_traced_run_reaches_every_hooked_layer(workloads, tmp_path, name):
    wl = workloads.workload(name, "tiny")
    outcome = workloads.run_traced(wl, 1, tmp_path / "trace.jsonl")
    assert outcome.attempted > 0
    assert outcome.failed == 0
    for metric in HOOKED:
        assert outcome.metrics[metric] > 0, metric
    for metric in SWEEP_HOOKED if wl.sweep else []:
        assert outcome.info[metric] > 0, metric
