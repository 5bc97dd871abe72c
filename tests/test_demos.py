"""The demo scripts run to completion, and the README quick start prints what it says."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import schedsketch as ss

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(ss.__file__).resolve().parent.parent)

# each bare expression of the README quick start, with the value its comment gives
QUICK_START = {
    "report.A": 18,
    "report.guarantee_condition_met": True,
    "report.schedule_sketch.times": (6, 12, 18),
    "ss.validate_schedule(sched, inst)": [],
    "sched.makespan": 18,
    "rep.A, access.ids_fetched": (10000001, 230073),
}


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_values():
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = code.splitlines()
    for expr, value in QUICK_START.items():
        assert any(line.startswith(expr + " ") and f"# {value!r}" in line for line in lines), expr
    namespace: dict = {}
    exec(code, namespace)
    for expr, value in QUICK_START.items():
        assert eval(expr, namespace) == value, expr
