import json
import os
import re
import subprocess
import sys
from pathlib import Path

import mhpf

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs(capsys):
    text = README.read_text()
    tour = re.search(r"^## Library tour\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert tour is not None, "README has no Library tour code block"
    exec(compile(tour.group(1), f"{README}:Library tour", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_every_public_name_imports():
    assert len(mhpf.__all__) == len(set(mhpf.__all__))
    namespace = {}
    exec(f"from mhpf import {', '.join(mhpf.__all__)}", namespace)
    assert all(name in namespace for name in mhpf.__all__)


# Runs in a fresh interpreter, since the test modules load scipy.stats
# themselves. It records after each import whether scipy.stats is loaded,
# then summarizes a tiny MHPF + BL1 raw set, whose rank-sum p-values must
# not load it either.
FOOTPRINT_SCRIPT = """
import json, sys
loaded = []
for name in ("mhpf", "mhpf.evaluation", "mhpf.cli"):
    __import__(name)
    loaded.append("scipy.stats" in sys.modules)
from mhpf.evaluation import summarize
raw = [{"mode": "mixed", "kappa": 0.3, "psi": 0.02, "lead_in": 0.0, "scenario": s,
        "repeat": 0, "filter": kind, "step": t, "mse": (s + 1) * off / t,
        "tree_distance": 4.0 * off / (t + s), "root_birth": 4.0}
       for kind, off in (("mhpf", 0.5), ("bl1", 1.25)) for s in range(3) for t in range(1, 5)]
row = next(r for r in summarize(raw) if r["filter"] == "mhpf")
loaded.append("scipy.stats" in sys.modules)
print(json.dumps({"loaded": loaded,
                  "p": [row["p_mse_vs_bl1"], row["p_dist_vs_bl1"], row["p_conv_vs_bl1"]]}))
"""
# The p-values of FOOTPRINT_SCRIPT's raw set, recorded while evaluation.py
# still imported scipy.stats at module level: an oracle for ranksum_p.
FOOTPRINT_P_VALUES = [0.12663045794761718, 0.049534613435626706, 0.08085559837005224]


def test_scipy_stats_is_never_loaded():
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
    out = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["loaded"] == [False, False, False, False]
    assert result["p"] == FOOTPRINT_P_VALUES
