"""Second pass: expand a schedule sketch into a concrete schedule.

The sketch assigns depth d the half-open interval [t_{d-1}, t_d).  The
second pass is a cursor walk over each depth's jobs in stream order:
place the job at the cursor if it still finishes by t_d, otherwise
start a fresh machine at t_{d-1}.  Running off machine m is an error —
the approximation guarantees make that impossible for a sketch produced
on the same instance, so it signals a mismatch rather than bad luck.

The walk's cuts depend only on the depth's prefix sums: a machine opened
at job i takes the jobs whose prefix sum stays within ``excl[i] + cap``
(the sum before job i plus the interval).  The builder chases the cuts
with one ``searchsorted`` a machine, then places the depth's jobs in
one pass.  A job longer than the whole interval sits alone on the
*next* machine (so a too-long first job leaves machine 1 empty): a
one-machine shift.
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


def check_completion(job: int, start: int, p: int) -> None:
    """Raise unless job ``job``, started at ``start``, completes within int64, which holds every schedule time."""
    if (start + p) >> 63:
        raise InputContractError(f"job {job} completion time {start + p} exceeds 2**63 - 1")


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

    machine, start = np.zeros((2, n), dtype=np.int64)
    # stream order within each depth; a stable sort of uint16 keys is a radix sort
    order = np.argsort(depth.astype(np.uint16) if h < 1 << 16 else depth, kind="stable")
    group_edges = np.searchsorted(depth[order], np.arange(1, h + 2))
    for d in range(1, h + 1):
        idx = order[group_edges[d - 1] : group_edges[d]]
        if idx.size == 0:
            continue
        base, t_d = sks.interval(d)
        cap = t_d - base
        pp = p[idx]
        k = pp.size
        csum = (pp if (int(pp.max()) * k + cap) >> 63 == 0 else pp.astype(object)).cumsum()  # csum + cap within int64
        excl = csum - pp
        shift = 1 if pp[0] > cap else 0
        cuts, pos, limit = [], 0, max(m - shift, 0)  # where the walk opens machines; stop past m - shift
        while pos < k and len(cuts) <= limit:  # a job longer than cap is a machine alone
            cuts.append(pos)
            pos = max(int(csum.searchsorted(excl[pos] + cap, "right")), pos + 1)
        if len(cuts) + shift > m:
            raise SketchInfeasibleError(
                f"depth {d} needs machine {len(cuts) + shift} of {m}; "
                "sketch does not fit this instance"
            )
        edges = np.array(cuts + [k])
        sizes = edges[1:] - edges[:-1]
        machine[idx] = np.arange(1 + shift, len(cuts) + 1 + shift).repeat(sizes)
        start[idx] = excl - (excl[edges[:-1]] - base).repeat(sizes)
    late = np.flatnonzero(start > (1 << 63) - 1 - p)  # start + p past int64
    if late.size:
        check_completion(int(late[0]) + 1, int(start[late[0]]), int(p[late[0]]))
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
    # by machine, then start, then index: one stable argsort of a combined int64 key, lexsort where it passes int64
    machine, start = sched.machine.astype(np.int64, copy=False), sched.start.astype(np.int64, copy=False)
    m_lo, s_lo = int(machine.min()), int(start.min())
    span = int(start.max()) - s_lo + 1
    if (int(machine.max()) - m_lo + 1) * span >> 63:
        by_machine = np.lexsort((start, machine))
    else:
        by_machine = np.argsort((machine - m_lo) * span + (start - s_lo), kind="stable")
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
