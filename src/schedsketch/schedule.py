"""Second pass: expand a schedule sketch into a concrete schedule.

The sketch assigns depth d the half-open interval [t_{d-1}, t_d).  The
builder walks each depth's jobs in stream order with a cursor: place
the job at the cursor if it still finishes by t_d, otherwise start a
fresh machine at t_{d-1}.  Running off machine m is an error — the
approximation guarantees make that impossible for a sketch produced on
the same instance, so it signals a mismatch rather than bad luck.

The per-depth cursor walk is equivalent to chunking the depth's job
sequence into maximal runs whose total fits the interval, which lets
the builder run on prefix sums and ``searchsorted`` instead of a
per-job Python loop.  The only wrinkle is a job longer than the whole
interval: the cursor places it alone on the *next* machine (so a
too-long first job leaves machine 1 empty), which the chunked walk
reproduces with a one-machine shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputContractError, SketchInfeasibleError
from .model import Instance, ScheduleSketch


@dataclass
class ConcreteSchedule:
    """Per-job machine and start assignments; arrays align with job index."""

    machine: np.ndarray
    start: np.ndarray
    p: np.ndarray

    @property
    def completion(self) -> np.ndarray:
        return self.start + self.p

    @property
    def makespan(self) -> int:
        return int(self.completion.max()) if self.p.size else 0

    @property
    def n(self) -> int:
        return int(self.p.size)


@dataclass(frozen=True)
class Violation:
    """One feasibility defect found by the validator."""

    kind: str
    jobs: tuple[int, ...]
    detail: str


def sketch_to_schedule(sks: ScheduleSketch, p, depth, m: int) -> ConcreteSchedule:
    """Place every job inside its depth's sketch interval.

    ``p`` and ``depth`` are the stream-ordered processing times and
    depths (depths must be known in the second pass).  Raises
    `SketchInfeasibleError` if any depth needs more than m machines.
    """
    p = np.asarray(p, dtype=np.int64)
    depth = np.asarray(depth, dtype=np.int64)
    if p.shape != depth.shape:
        raise InputContractError("p and depth arrays must have equal length")
    n = p.size
    h = sks.h
    if n and (depth.min() < 1 or depth.max() > h):
        raise InputContractError(f"job depths must lie in [1, {h}] for this sketch")

    machine = np.zeros(n, dtype=np.int64)
    start = np.zeros(n, dtype=np.int64)
    order = np.argsort(depth, kind="stable")  # stream order within each depth
    sorted_depths = depth[order]
    group_edges = np.searchsorted(sorted_depths, np.arange(1, h + 2))
    for d in range(1, h + 1):
        idx = order[group_edges[d - 1] : group_edges[d]]
        if idx.size == 0:
            continue
        base, t_d = sks.interval(d)
        cap = t_d - base
        pp = p[idx]
        csum = np.cumsum(pp if int(pp.max()) * pp.size >> 63 == 0 else pp.astype(object))  # exact past int64
        pos = 0
        prev = 0
        lane = 0  # 1-based after increment
        shift = 1 if pp[0] > cap else 0
        while pos < idx.size:
            cut = int(np.searchsorted(csum, prev + cap, side="right"))
            if cut == pos:  # job longer than the interval: alone on its machine
                cut = pos + 1
            lane += 1
            if lane + shift > m:
                raise SketchInfeasibleError(
                    f"depth {d} needs machine {lane + shift} of {m}; "
                    "sketch does not fit this instance"
                )
            sel = idx[pos:cut]
            start[sel] = base + (csum[pos:cut] - pp[pos:cut]) - prev
            machine[sel] = lane + shift
            prev = csum[cut - 1]
            pos = cut
    return ConcreteSchedule(machine=machine, start=start, p=p)


def schedule_instance(sks: ScheduleSketch, inst: Instance) -> ConcreteSchedule:
    """Convenience wrapper: second pass over a materialized instance."""
    if inst.depth is None:
        raise InputContractError("second pass requires job depths")
    return sketch_to_schedule(sks, inst.p, inst.depth, inst.m)


def validate_schedule(sched: ConcreteSchedule, inst: Instance, m: int | None = None) -> list[Violation]:
    """Independent feasibility check; an empty list means feasible.

    Checks machine indices, per-machine non-overlap, and that every
    precedence arc's source completes before its destination starts.
    Violations are data, not errors.
    """
    m = inst.m if m is None else m
    out: list[Violation] = []
    if sched.n != inst.n:
        out.append(Violation("size-mismatch", (), f"schedule has {sched.n} jobs, instance {inst.n}"))
        return out
    if sched.n == 0:
        return out
    bad_m = np.nonzero((sched.machine < 1) | (sched.machine > m))[0]
    for i in bad_m:
        out.append(
            Violation("machine-range", (int(i) + 1,), f"job {i + 1} on machine {int(sched.machine[i])} of {m}")
        )
    comp = sched.completion
    by_machine = np.lexsort((sched.start, sched.machine))
    same = sched.machine[by_machine][1:] == sched.machine[by_machine][:-1]
    overlap = same & (comp[by_machine][:-1] > sched.start[by_machine][1:])
    for i in np.nonzero(overlap)[0]:
        a, b = int(by_machine[i]) + 1, int(by_machine[i + 1]) + 1
        out.append(
            Violation(
                "overlap",
                (a, b),
                f"jobs {a} and {b} overlap on machine {int(sched.machine[a - 1])}",
            )
        )
    if inst.arcs.size:
        src = inst.arcs[:, 0] - 1
        dst = inst.arcs[:, 1] - 1
        broken = np.nonzero(comp[src] > sched.start[dst])[0]
        for i in broken:
            a, b = int(inst.arcs[i, 0]), int(inst.arcs[i, 1])
            out.append(
                Violation(
                    "precedence",
                    (a, b),
                    f"job {b} starts at {int(sched.start[b - 1])} before job {a} completes at {int(comp[a - 1])}",
                )
            )
    return out


def depth_containment_ok(sched: ConcreteSchedule, depth, sks: ScheduleSketch) -> bool:
    """True when every depth-d job runs inside [t_{d-1}, t_d]."""
    depth = np.asarray(depth, dtype=np.int64)
    lo = np.concatenate(([0], np.asarray(sks.times[:-1], dtype=np.int64)))
    hi = np.asarray(sks.times, dtype=np.int64)
    return bool(
        np.all(sched.start >= lo[depth - 1]) and np.all(sched.completion <= hi[depth - 1])
    )
