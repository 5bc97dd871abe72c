"""Instance file format, result files, and generator specs.

Instance files are line oriented so the streaming algorithms can read
them one event at a time:

    # sched-stream v1
    J <id> <p> [<depth>]     one line per job, ids contiguous from 1
    A <src> <dst>            arcs after all jobs, topologically ordered

Blank lines and ``#`` comments are ignored.  Either every job line
carries a depth or none does.  "Topologically ordered" concretely
means: once an id has appeared as an arc source, it may not appear as
a destination again — exactly the property the one-pass depth updates
need.

A generator spec like ``chain:m=200,q=5,h=3,seed=1`` can stand in for
a file name anywhere an instance is read; the sampling commands can
also serve the chain and constant alpha-mixed families implicitly, so
10^7-job instances never materialize.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Iterator

import numpy as np

from .core import ceil_div
from .errors import CycleSuspicionError, InputContractError, ParamError
from .model import Arc, Instance, Job, RunReport, ScheduleSketch, StreamEvent
from .generators import generate
from .sampling import ChainAccess, SampleAccess, TwoValueAccess
from .schedule import ConcreteSchedule, Violation

HEADER = "# sched-stream v1"
P_LIMIT = 2**63 - 1  # processing times are held as int64


def write_instance(inst: Instance, path: str, with_depths: bool = True) -> None:
    """Write the line format; also drops a JSON metadata sidecar."""
    depths = inst.depth if with_depths else None
    with open(path, "w") as fh:
        fh.write(HEADER + "\n")
        for i in range(inst.n):
            if depths is not None:
                fh.write(f"J {i + 1} {int(inst.p[i])} {int(depths[i])}\n")
            else:
                fh.write(f"J {i + 1} {int(inst.p[i])}\n")
        for src, dst in inst.arcs:
            fh.write(f"A {int(src)} {int(dst)}\n")
    if inst.meta:
        with open(path + ".meta.json", "w") as fh:
            json.dump({**inst.meta, "m": inst.m, "n": inst.n}, fh, indent=2, sort_keys=True)
            fh.write("\n")


def iter_stream(path: str) -> Iterator[StreamEvent]:
    """Yield events line by line, enforcing the stream contract as it goes."""
    jobs_done = False
    depth_convention: bool | None = None
    sources_seen: set[int] = set()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            try:  # zero-cost on a valid line
                if tag == "J":
                    if jobs_done:
                        raise InputContractError(f"{path}:{lineno}: job line after arc lines")
                    if len(parts) not in (3, 4):
                        raise InputContractError(f"{path}:{lineno}: expected 'J <id> <p> [<depth>]'")
                    has_depth = len(parts) == 4
                    if depth_convention is None:
                        depth_convention = has_depth
                    elif depth_convention != has_depth:
                        raise InputContractError(
                            f"{path}:{lineno}: either all job lines carry a depth or none does"
                        )
                    ev = Job(int(parts[1]), int(parts[2]), int(parts[3]) if has_depth else None)
                    if ev.p > P_LIMIT:
                        raise InputContractError(
                            f"{path}:{lineno}: processing time {ev.p} exceeds 2**63 - 1"
                        )
                elif tag == "A":
                    if len(parts) != 3:
                        raise InputContractError(f"{path}:{lineno}: expected 'A <src> <dst>'")
                    jobs_done = True
                    src, dst = int(parts[1]), int(parts[2])
                    if dst in sources_seen:
                        raise CycleSuspicionError(
                            f"{path}:{lineno}: arc ({src}, {dst}) is not in topological order"
                        )
                    sources_seen.add(src)
                    ev = Arc(src, dst)
                else:
                    raise InputContractError(f"{path}:{lineno}: unknown line tag {tag!r}")
            except InputContractError:
                raise
            except ValueError as exc:  # a field that is no integer, or a value Job rejects
                raise InputContractError(f"{path}:{lineno}: {exc}") from None
            yield ev


def read_instance(path: str, m: int = 1) -> Instance:
    """Materialize an instance file; ids must be exactly 1..n."""
    ids: list[int] = []
    ps: list[int] = []
    depths: list[int] = []
    have_depths = False
    arcs: list[tuple[int, int]] = []
    for ev in iter_stream(path):
        if isinstance(ev, Job):
            ids.append(ev.id)
            ps.append(ev.p)
            if ev.depth is not None:
                have_depths = True
                depths.append(ev.depth)
        else:
            arcs.append((ev.src, ev.dst))
    n = len(ids)
    if n == 0:
        raise InputContractError(f"{path}: no jobs")
    if sorted(ids) != list(range(1, n + 1)):
        raise InputContractError(f"{path}: job ids must be exactly 1..{n}")
    p = np.zeros(n, dtype=np.int64)
    p[np.asarray(ids) - 1] = ps
    depth = None
    if have_depths:
        depth = np.zeros(n, dtype=np.int64)
        depth[np.asarray(ids) - 1] = depths
    meta = {}
    sidecar = path + ".meta.json"
    if os.path.exists(sidecar):
        with open(sidecar) as fh:
            meta = json.load(fh)
        m = int(meta.get("m", m))
    return Instance(p=p, depth=depth, arcs=np.asarray(arcs, dtype=np.int64).reshape(-1, 2), m=m, meta=meta)


def report_to_dict(report: RunReport) -> dict:
    return {
        "algorithm": report.algorithm,
        "A": int(report.A),
        "sks": [int(t) for t in report.schedule_sketch.times],
        "sketch_nodes": report.sketch_node_count,
        "samples": report.samples_drawn,
        "update_count": report.update_count,
        "params": {k: v for k, v in asdict(report.params).items()},
        "guarantee_condition_met": bool(report.guarantee_condition_met),
        "seed": report.params.seed,
    }


def write_result(report: RunReport, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_result(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def sketch_from_result(doc: dict) -> ScheduleSketch:
    return ScheduleSketch(tuple(int(t) for t in doc["sks"]), source=doc.get("algorithm", ""))


def write_schedule_csv(sched: ConcreteSchedule, path: str) -> None:
    comp = sched.completion
    with open(path, "w") as fh:
        fh.write("job_id,machine,start,completion\n")
        for i in range(sched.n):
            fh.write(f"{i + 1},{int(sched.machine[i])},{int(sched.start[i])},{int(comp[i])}\n")


def write_violations(violations: list[Violation], path: str) -> None:
    doc = [{"kind": v.kind, "jobs": list(v.jobs), "detail": v.detail} for v in violations]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def looks_like_gen_spec(text: str) -> bool:
    return ":" in text and not os.path.exists(text) and text.split(":", 1)[0] in (
        "chain",
        "layered",
        "alpha-mixed",
        "random-dag",
    )


def parse_gen_spec(text: str) -> tuple[str, dict]:
    """Parse ``family:key=value,...`` into (family, kwargs)."""
    family, _, rest = text.partition(":")
    kwargs: dict = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not _:
                raise ParamError(f"bad generator spec item {item!r}")
            key = key.strip()
            if key == "shape":
                kwargs[key] = [int(x) for x in val.split("/")]
            elif key in ("alpha", "density"):
                kwargs[key] = float(val)
            else:
                kwargs[key] = int(val)
    return family, kwargs


def instance_from_spec(text: str) -> Instance:
    family, kwargs = parse_gen_spec(text)
    seed = kwargs.pop("seed", 0)
    if "pbig" in kwargs:  # the key `access_from_spec` reads, so one spec serves both
        kwargs["p_big"] = kwargs.pop("pbig")
    return generate(family, seed=seed, **kwargs)


def access_from_spec(text: str) -> SampleAccess:
    """Implicit sample access for the families that support it."""
    family, kwargs = parse_gen_spec(text)
    kwargs.pop("seed", None)
    if family == "chain":
        return ChainAccess(m=kwargs["m"], q=kwargs["q"], h=kwargs.get("h", 1))
    if family == "alpha-mixed":
        if "small" not in kwargs:
            raise ParamError("implicit alpha-mixed needs a constant small= value")
        n = kwargs["n"]
        n_big = ceil_div(int(round(kwargs["alpha"] * n * 10**9)), 10**9)
        return TwoValueAccess(n=n, n_big=n_big, p_big=kwargs["pbig"], p_small=kwargs["small"])
    raise ParamError(f"family {family!r} has no implicit form; materialize it with gen")
