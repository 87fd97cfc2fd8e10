import re
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
