"""Output checks made apart from schedsketch.

Everything here is computed from the benchmark's own arrays (processing
times and arcs as generated) with numpy and exact integer/rational
arithmetic.  Nothing imports schedsketch, so a fault in the program
cannot hide itself by also being in its checker.

Each ``check_*`` function returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

CAPPED_MODES = ("stream3", "stream4")


def longest_path(weights: np.ndarray, arcs: np.ndarray) -> np.ndarray:
    """Heaviest path ending at each job, by relaxing every arc until stable.

    ``arcs`` holds 1-based (src, dst) rows.  Each sweep extends every
    path by one arc, so a DAG of height h settles after h sweeps; more
    sweeps than jobs means a cycle.
    """
    weights = np.asarray(weights, dtype=np.int64)
    finish = weights.copy()
    if arcs.size == 0:
        return finish
    src, dst = arcs[:, 0] - 1, arcs[:, 1] - 1
    for _ in range(weights.size + 1):
        nxt = weights.copy()
        np.maximum.at(nxt, dst, finish[src] + weights[dst])
        if np.array_equal(nxt, finish):
            return finish
        finish = nxt
    raise ValueError("arcs contain a cycle")


@dataclass(frozen=True)
class Reference:
    """What the checker knows about one instance on m machines."""

    p: np.ndarray
    depth: np.ndarray
    arcs: np.ndarray
    m: int
    loads: tuple[int, ...]  # exact total processing time per depth 1..h
    lb: int  # max(ceil(sum p / m), heaviest precedence path) <= C*

    @property
    def n(self) -> int:
        return int(self.p.size)

    @property
    def h(self) -> int:
        return len(self.loads)

    @property
    def p_max(self) -> int:
        return int(self.p.max())


def reference(p: np.ndarray, arcs: np.ndarray, m: int) -> Reference:
    p = np.asarray(p, dtype=np.int64)
    arcs = np.asarray(arcs, dtype=np.int64).reshape(-1, 2)
    depth = longest_path(np.ones_like(p), arcs)
    h = int(depth.max())
    # int64 sums per depth: bincount's float weights would round above 2^53
    loads = tuple(int(p[depth == d].sum()) for d in range(1, h + 1))
    total = sum(loads)
    lb = max(-(-total // m), int(longest_path(p, arcs).max()))
    return Reference(p=p, depth=depth, arcs=arcs, m=m, loads=loads, lb=lb)


def stream_upper_bound(ref: Reference, mode: str, epsilon: float, c: int | None) -> int:
    """Largest A a correct one-pass run may report.

    Every job's rounded time is at most (1+delta) times its true time,
    with 1+delta the exact rational value of the double the program
    uses.  Each depth budget pays one pad (c for stream1, p_max
    otherwise) and may gain one unit from float summation; the capped
    modes add one ceil(p_max/n) tail for the jobs they skip.
    """
    base = 1 + Fraction(epsilon / 3.0)
    pad = c if mode == "stream1" else ref.p_max
    bound = sum(math.floor(base * load / ref.m) for load in ref.loads) + ref.h * (pad + 1)
    if mode in CAPPED_MODES:
        bound += -(-ref.p_max // ref.n)
    return bound


def check_stream(ref: Reference, doc: dict, mode: str, epsilon: float, c: int | None) -> list[str]:
    """Check one stream result document (the JSON the CLI writes)."""
    problems = []
    a = int(doc["A"])
    times = [int(t) for t in doc["sks"]]
    if a < ref.lb:
        problems.append(f"{mode}: A={a} is below the lower bound {ref.lb}")
    upper = stream_upper_bound(ref, mode, epsilon, c)
    if a > upper:
        problems.append(f"{mode}: A={a} exceeds the rounding bound {upper}")
    if len(times) != ref.h:
        problems.append(f"{mode}: {len(times)} sketch times for {ref.h} depths")
    if any(b < t for t, b in zip(times, times[1:])):
        problems.append(f"{mode}: sketch times {times} decrease")
    if not times or a > times[-1]:
        problems.append(f"{mode}: A={a} exceeds the last sketch time {times[-1:]}")
    return problems


def read_schedule_csv(path: str) -> np.ndarray:
    """Rows of (job_id, machine, start, completion)."""
    return np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)


def check_schedule(ref: Reference, rows: np.ndarray, times: list[int]) -> list[str]:
    """Check a concrete schedule against the instance and its sketch times."""
    if rows.shape != (ref.n, 4):
        return [f"schedule has shape {rows.shape}, expected ({ref.n}, 4)"]
    problems = []
    job, machine, start, comp = rows.T
    if not np.array_equal(job, np.arange(1, ref.n + 1)):
        problems.append("schedule rows are not jobs 1..n in order")
    if not np.array_equal(comp - start, ref.p):
        problems.append("completion - start differs from p")
    bad = np.count_nonzero((machine < 1) | (machine > ref.m))
    if bad:
        problems.append(f"{bad} job(s) on a machine outside 1..{ref.m}")
    order = np.lexsort((start, machine))
    same = machine[order][1:] == machine[order][:-1]
    overlaps = np.count_nonzero(same & (comp[order][:-1] > start[order][1:]))
    if overlaps:
        problems.append(f"{overlaps} overlapping pair(s) on one machine")
    if ref.arcs.size:
        broken = np.count_nonzero(comp[ref.arcs[:, 0] - 1] > start[ref.arcs[:, 1] - 1])
        if broken:
            problems.append(f"{broken} arc(s) violated")
    hi = np.asarray(times, dtype=np.int64)
    if hi.size != ref.h:
        return problems + [f"{hi.size} sketch times for {ref.h} depths"]
    lo = np.concatenate(([0], hi[:-1]))
    outside = np.count_nonzero((start < lo[ref.depth - 1]) | (comp > hi[ref.depth - 1]))
    if outside:
        problems.append(f"{outside} job(s) outside their depth's interval")
    if comp.max() > hi[-1]:
        problems.append(f"makespan {int(comp.max())} exceeds t_h={int(hi[-1])}")
    return problems


def chain_cstar(chains: int, h: int, m: int) -> int:
    """Optimum of `chains` disjoint chains of h unit jobs on m machines."""
    return max(h, -(-chains * h // m))


def two_value_cstar(n: int, n_big: int, p_big: int, p_small: int) -> int:
    """Optimum of independent jobs on one machine: the total work."""
    return n_big * p_big + (n - n_big) * p_small


def check_sample(doc: dict, cstar: int, epsilon: float) -> list[str]:
    """|A - C*| <= epsilon * C*, exactly."""
    a = int(doc["A"])
    if abs(Fraction(a - cstar)) > Fraction(epsilon) * cstar:
        return [f"{doc.get('algorithm')}: A={a} is not within {epsilon} of C*={cstar}"]
    return []
