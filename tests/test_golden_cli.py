"""Golden CLI outputs, byte for byte.

Every stream mode at two epsilons, plain and ``--tight``, on five small
instance files, each result expanded by ``schedule``; both samplers on
full-scan implicit specs; and the exit-3 error cases.  For each call the
exit code, stdout, stderr and every file it writes (result JSON,
``--sketch-out`` JSON, schedule CSV, violation report) are compared
with ``data/golden_cli.json``.  Temporary paths read ``<tmp>``.

The data file records the program's behaviour at one point in time;
regenerate it only for an intended output change, with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import schedsketch as ss
from schedsketch import fileio
from schedsketch.cli import main

DATA = Path(__file__).parent / "data" / "golden_cli.json"
EPSILONS = ("0.3", "0.05")
ALPHA = "0.25"


def _ascending() -> ss.Instance:
    """30 jobs with strictly ascending p up to ~8e6; job j's one parent is j // 2."""
    n = 30
    p = np.array([int(1.7**j) + j for j in range(1, n + 1)], dtype=np.int64)
    arcs = [(j // 2, j) for j in range(2, n + 1)]
    return ss.Instance(p=p, depth=ss.compute_depths(arcs, n), arcs=arcs, m=2)


INSTANCES = {
    "chain": lambda: ss.chain(m=2, q=3, h=3),
    "layered": lambda: ss.layered([6, 5, 4], c=9, m=2, seed=3),
    "alpha_mixed": lambda: ss.alpha_mixed(n=24, alpha=0.25, c=3, p_big=1000, m=2, h=3, seed=5),
    "random_dag": lambda: ss.random_dag(n=20, h=3, density=0.3, m=2, c=6, seed=7),
    "ascending": _ascending,
}

SAMPLER_CALLS = {
    "sample1": ["--epsilon", "0.3", "--m", "1", "--c", "1", "--h", "3",
                "--in", "chain:m=1,q=33333,h=3"],
    "sample2": ["--epsilon", "0.3", "--m", "1", "--c", "2", "--h", "1", "--alpha", ALPHA,
                "--in", "alpha-mixed:n=100000,alpha=0.25,c=2,pbig=1000,small=1"],
}

# (label, file text, argv after the subcommand's --in/--out); every case exits 3.
ERROR_CASES = [
    ("empty", "# sched-stream v1\n", "stream1", ["--c", "1", "--h", "1"]),
    ("job_after_arc", "J 1 1\nJ 2 1\nA 1 2\nJ 3 1\n", "stream2", []),
    ("mixed_depths", "J 1 1 1\nJ 2 1\n", "stream1", ["--c", "1", "--h", "1"]),
    ("unknown_tag", "J 1 1\nX 1 1\n", "stream2", []),
    ("short_job_line", "J 1\n", "stream2", []),
    ("short_arc_line", "J 1 1\nJ 2 1\nA 1\n", "stream2", []),
    ("arc_order", "J 1 1\nJ 2 1\nJ 3 1\nA 1 2\nA 3 1\n", "stream2", []),
    ("depth_over_h", "J 1 1 1\nJ 2 1 2\n", "stream1", ["--c", "1", "--h", "1"]),
    ("p_over_c", "J 1 1 1\nJ 2 5 1\n", "stream1", ["--c", "2", "--h", "1"]),
    ("no_depths_stream1", "J 1 1\nJ 2 1\n", "stream1", ["--c", "1", "--h", "1"]),
    ("no_depths_stream3", "J 1 1\nJ 2 1\n", "stream3", ["--c", "1", "--h", "1", "--n", "2"]),
    ("depth_over_h_stream3", "J 1 1 1\nJ 2 1 2\n", "stream3", ["--c", "1", "--h", "1", "--n", "2"]),
    ("wrong_n_stream3", "J 1 1 1\nJ 2 1 1\n", "stream3", ["--c", "1", "--h", "1", "--n", "3"]),
    ("wrong_n_stream4", "J 1 1\nJ 2 1\n", "stream4", ["--n", "3"]),
    ("empty_stream4", "# sched-stream v1\n", "stream4", ["--n", "1"]),
    ("unseen_arc_id", "J 1 1\nJ 2 1\nA 1 7\n", "stream2", []),
    ("unseen_arc_id_stream4", "J 1 1\nJ 2 1\nA 1 7\n", "stream4", ["--n", "2"]),
    ("duplicate_id", "J 1 1\nJ 1 2\n", "stream2", []),
    ("duplicate_id_stream4", "J 1 1\nJ 1 2\n", "stream4", ["--n", "2"]),
    ("self_loop", "J 1 1\nA 1 1\n", "stream2", []),
    ("self_loop_stream4", "J 1 1\nA 1 1\n", "stream4", ["--n", "1"]),
    ("sample_p_over_c", "J 1 1 1\nJ 2 9 1\n", "sample1", ["--c", "2", "--h", "1"]),
    ("sample_depth_over_h", "J 1 1 1\nJ 2 1 2\n", "sample2", ["--c", "2", "--h", "1"]),
]


def _call(argv: list[str], tmp: Path, files: dict[str, Path]) -> dict:
    """Run ``schedsketch <argv>`` in process; record everything it printed or wrote."""
    for path in files.values():
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    hide = str(tmp)
    rec = {
        "argv": [a.replace(hide, "<tmp>") for a in argv],
        "rc": rc,
        "stdout": out.getvalue().replace(hide, "<tmp>"),
        "stderr": err.getvalue().replace(hide, "<tmp>"),
    }
    for name, path in files.items():
        rec[name] = path.read_text() if path.exists() else None
    return rec


def _stream_args(mode: str, inst: ss.Instance) -> list[str]:
    args = ["--m", str(inst.m)]
    if mode in ("stream1", "stream3"):
        args += ["--c", str(int(inst.p.max())), "--h", str(inst.height)]
    if mode in ("stream3", "stream4"):
        args += ["--n", str(inst.n), "--alpha", ALPHA]
    return args


def run_instance(name: str, tmp: Path) -> list[dict]:
    """Each stream mode x epsilon x plain/tight on one instance, then `schedule`."""
    inst = INSTANCES[name]()
    path = tmp / f"{name}.txt"
    fileio.write_instance(inst, str(path))
    result, sketch = tmp / "result.json", tmp / "sketch.json"
    csv, report = tmp / "schedule.csv", tmp / "schedule.csv.violations.json"
    records = []
    for mode in ("stream1", "stream2", "stream3", "stream4"):
        for eps in EPSILONS:
            for tight in ([], ["--tight"]):
                argv = [mode, "--epsilon", eps, *_stream_args(mode, inst), *tight,
                        "--in", str(path), "--out", str(result), "--sketch-out", str(sketch)]
                records.append(_call(argv, tmp, {"result": result, "sketch": sketch}))
                argv = ["schedule", "--sks", str(result), "--in", str(path),
                        "--m", str(inst.m), "--out", str(csv)]
                records.append(_call(argv, tmp, {"csv": csv, "violations": report}))
    return records


def run_samplers(tmp: Path) -> list[dict]:
    return [
        _call([cmd, *args, "--seed", str(seed)], tmp, {})
        for cmd, args in SAMPLER_CALLS.items()
        for seed in (0, 1, 2)
    ]


def run_errors(tmp: Path) -> list[dict]:
    records = []
    for label, text, cmd, args in ERROR_CASES:
        path = tmp / f"{label}.txt"
        path.write_text(text)
        result = tmp / "result.json"
        argv = [cmd, "--epsilon", "0.3", "--m", "1", *args, "--in", str(path), "--out", str(result)]
        records.append({"case": label, **_call(argv, tmp, {"result": result})})
    return records


def run_group(group: str, tmp: Path) -> list[dict]:
    if group == "samplers":
        return run_samplers(tmp)
    if group == "errors":
        return run_errors(tmp)
    return run_instance(group, tmp)


GROUPS = (*INSTANCES, "samplers", "errors")


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("group", GROUPS)
def test_cli_outputs_match_golden(group, golden, tmp_path):
    got = run_group(group, tmp_path)
    want = golden[group]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, f"call {' '.join(w['argv'])}"


def test_error_cases_exit_3(golden):
    assert all(rec["rc"] == 3 for rec in golden["errors"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmpdir:
        doc = {group: run_group(group, Path(tmpdir)) for group in GROUPS}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    calls = sum(len(v) for v in doc.values())
    sys.stdout.write(f"wrote {calls} calls to {DATA}\n")
