"""Per-event reference for the four stream modes.

The engine checks each job chunk once by vectorized masks, counts it
with one call that evicts eagerly, and keeps the arc modes' per-job
depths as columns (`sketch.DepthColumns`) raised one arc chunk at a
time, moving the counts of each chunk's raised jobs that hold one in
one batch.  This module walks the same input one event at a time
instead, and evicts as the paper does, lazily, with code of its own
(`LazySketch`).  A job with a given depth is checked at its row
(``p >= 1``, a depth, ``depth <= h``, ``p <= c`` in `stream1`,
``depth >= 1``), then counted, or skipped below the running maximum
over n^2 in the capped modes, with a lazy prune whenever the count
creates a node and a peak update after it.  In the arc modes every job
goes into a dict `DepthTable`, every arc is checked against the set of
sources seen so far, and a raised depth moves its job's count in the
sketch at once (`move`; in the capped mode a skipped job has no count,
and `LazySketch.move_if_present` finds out whether an evicted job's
count is gone); at the end of the stream the ids must be 1..n, and a
declared n must equal the job count.
The finish (`A`, sketch times, guarantee) is the engine's, but the
capped modes' bucket window is computed here.
Tests hold the engine's results and errors to this walk.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from schedsketch import streaming
from schedsketch.core import (
    STREAM_ALPHA_KNOWN,
    STREAM_ALPHA_UNKNOWN,
    STREAM_KNOWN,
    AlgoParams,
    buckets_for,
    ceil_div,
    derive_params,
)
from schedsketch.errors import CycleSuspicionError, InputContractError
from schedsketch.model import ArcChunk, RunReport, ScheduleSketch
from schedsketch.sketch import DepthTable, TreeSketch, bucket_loads


class LazySketch(TreeSketch):
    """`TreeSketch` with the paper's lazy eviction: each prune drops at most the smallest node."""

    def prune_smallest(self, cutoff_u: int) -> bool:
        if self._map and min(self._map)[0] < cutoff_u:
            del self._map[min(self._map)]
            return True
        return False

    def move_if_present(self, d: int, u: int, d_new: int) -> tuple[bool, bool]:
        """`move`, but a missing source is tolerated: returns (moved, created).

        The capped arc mode's walk: a job's count may have been skipped
        or evicted as too small before an arc raised its depth.
        """
        if self._map.get((u, d), 0) < 1:
            return False, False
        return True, self.move(d, u, d_new)


class _Table(DepthTable):
    """`DepthTable` with the two views the engine's columns give of it."""

    def held_depths(self, h: int) -> list[bool]:
        """Flags for depths 0..h: entry d is True iff some job has depth d."""
        held = [False] * (h + 1)
        for d, _ in self._rec.values():
            held[d] = True
        return held

    def check_ids(self) -> None:
        """Raise unless the job ids are exactly 1..n, naming the first missing one."""
        n = len(self._rec)
        missing = next((j for j in range(1, n + 1) if j not in self._rec), None)
        if missing is not None:
            raise InputContractError(f"job ids must be exactly 1..{n}; no job has id {missing}")

    def depths_array(self) -> np.ndarray:
        """Depths for ids 1..n, which `check_ids` ensures."""
        return np.array([self.get(j)[0] for j in range(1, len(self) + 1)], dtype=np.int64)


def stream_per_event(events, params: AlgoParams, mode: str, tight: bool = False) -> RunReport:
    """Any stream mode on ``events`` (events or chunks), walked event by event."""
    given = mode in (STREAM_KNOWN, STREAM_ALPHA_KNOWN)
    capped = mode in (STREAM_ALPHA_KNOWN, STREAM_ALPHA_UNKNOWN)
    drv = derive_params(params, mode)
    gb = buckets_for(drv.delta)
    sk = LazySketch()
    table = _Table()
    sources_seen: set[int] = set()
    skipped: set[int] = set()  # capped modes: the jobs skipped as too small, which hold no count
    in_arc_phase = False
    h, c = params.h if given else 1, params.c
    p_cap = c if mode == STREAM_KNOWN else math.inf
    held = [False] * (h + 1)
    n_sq = params.n * params.n if capped else 1 << 63
    p_max_run = 1
    cutoff = gb.floor_log(p_max_run, n_sq)
    height = h
    n = updates = 0
    for chunk in streaming._chunks(events):
        cols = [None if col is None else col.tolist() for col in chunk]
        updates += len(cols[0])
        if isinstance(chunk, ArcChunk):
            if given:
                continue
            in_arc_phase = True
            for src, dst in zip(*cols):
                if dst in sources_seen:
                    raise CycleSuspicionError(
                        f"arc ({src} -> {dst}) arrived after {dst} was already a source; "
                        "arc stream is not in topological order"
                    )
                sources_seen.add(src)
                d_src, _ = table.get(src)
                d_dst, u_dst = table.get(dst)
                if d_src + 1 > d_dst:
                    new_depth = d_src + 1
                    if new_depth > len(table):
                        raise CycleSuspicionError(f"depth {new_depth} exceeds job count {len(table)}")
                    if src == dst:
                        raise CycleSuspicionError(f"self-loop arc ({src} -> {dst}) forms a cycle")
                    if not capped:
                        sk.move(d_dst, u_dst, new_depth)
                    elif dst not in skipped and sk.move_if_present(d_dst, u_dst, new_depth)[1]:
                        sk.prune_smallest(cutoff)
                        sk.note_peak()
                    table.raise_depth(dst, new_depth)
                    height = max(height, new_depth)
            continue
        for job_id, p, d in zip(cols[0], cols[1], repeat(None) if cols[2] is None else cols[2]):
            u = gb.index(p)
            if not given:
                if in_arc_phase:
                    raise InputContractError(f"job {job_id} arrived after arc events began")
                table.insert(job_id, u)
                d = 1
            elif d is None:
                raise InputContractError(f"job {job_id} carries no depth; this mode requires depths")
            elif d > h:
                raise InputContractError(f"job {job_id} has depth {d} > h={h}")
            elif p > p_cap:
                raise InputContractError(f"job {job_id} has p={p} > c={p_cap}")
            elif d < 1:
                raise InputContractError(f"depth must be >= 1, got {d}")
            held[d] = True
            sk.note_processing_time(p)
            n += 1
            if not capped:
                sk.add(d, u)
                continue
            if p * n_sq < p_max_run:
                skipped.add(job_id)
                continue
            if p > p_max_run:
                p_max_run = p
                cutoff = gb.floor_log(p_max_run, n_sq)
            if sk.add(d, u):
                sk.prune_smallest(cutoff)
            sk.note_peak()
    if not given:
        table.check_ids()
    if n == 0:
        raise InputContractError("empty job stream")
    if params.n is not None and n != params.n:
        raise InputContractError(f"stream carried {n} jobs but n={params.n} was declared")
    if mode == STREAM_KNOWN:
        top, u_lo, u_hi = c, 0, drv.k
    else:
        top = sk.p_max
        u_lo, u_hi = (cutoff if capped else gb.index(sk.p_min)), gb.index(top)
    final = sk.restrict(gb.floor_log(sk.p_max, n * n), gb.floor_log(sk.p_max)) if capped else sk
    if given:
        c_run = c
    else:
        u_top = final.top_bucket(math.ceil(params.alpha * n)) if capped else None
        c_run = ceil_div(sk.p_max, sk.p_min if u_top is None else gb.bound(u_top))
    loads = bucket_loads(((u, d, cnt) for d, u, cnt in final.entries()), gb, u_lo, u_hi, top, height) / params.m
    tail = ceil_div(top, n) if capped else 0
    if not given:
        held = table.held_depths(height)
    A, times = streaming.totals(loads, top, tight, tail=tail, slack=tail, held=held)
    if capped:
        ok = 3.0 * params.m * (height + 1) * c_run <= 2.0 * n * params.alpha * params.epsilon
    else:
        ok = 3.0 * params.m * height * c_run <= 2.0 * n * params.epsilon
    extras = {"n": n, "delta": drv.delta, "k": drv.k, "p_max": sk.p_max, "input_sketch": final}
    if not given:
        extras.update(p_min=sk.p_min, c_discovered=c_run, h_discovered=height, depth_table=table)
    if capped:
        extras.update(peak_node_count=sk.peak_node_count, counted=final.total_counted)
    return RunReport(
        algorithm=mode,
        A=A,
        schedule_sketch=ScheduleSketch(times, source=mode),
        sketch_node_count=final.node_count,
        samples_drawn=0,
        update_count=updates,
        params=params,
        guarantee_condition_met=ok,
        extras=extras,
    )
