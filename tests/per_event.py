"""Per-event reference for the arc-driven stream modes (stream2, stream4).

The engine keeps per-job depths as columns (`sketch.DepthColumns`) and
raises them one arc chunk at a time.  This module walks the same input
one event at a time instead: every job goes into a dict `DepthTable`,
every arc is checked against the set of sources seen so far, and a
raised depth moves its job's count in the sketch at once (`move`, or
`move_if_present` in the capped mode, where the job may have been
skipped or evicted), with a lazy prune and a peak update whenever the
move creates a node.  The finish (`A`, sketch times, guarantee) is the
engine's.  Tests hold the engine's results and errors to this walk.
"""

from __future__ import annotations

import math

import numpy as np

from schedsketch import streaming
from schedsketch.core import STREAM_ALPHA_UNKNOWN, AlgoParams, buckets_for, ceil_div, derive_params
from schedsketch.errors import CycleSuspicionError, InputContractError
from schedsketch.model import ArcChunk, RunReport, ScheduleSketch
from schedsketch.sketch import DepthTable, TreeSketch, sketch_finalize_alpha


class _Table(DepthTable):
    """`DepthTable` with the two views the engine's columns give of it."""

    def held_depths(self, h: int) -> list[bool]:
        """Flags for depths 0..h: entry d is True iff some job has depth d."""
        held = [False] * (h + 1)
        for d, _ in self._rec.values():
            held[d] = True
        return held

    def depths_array(self, n: int) -> np.ndarray:
        """Depths for contiguous ids 1..n."""
        return np.array([self.get(j)[0] for j in range(1, n + 1)], dtype=np.int64)


def stream_per_event(events, params: AlgoParams, mode: str, tight: bool = False) -> RunReport:
    """``stream2`` or ``stream4`` on ``events`` (events or chunks), walked event by event."""
    capped = mode == STREAM_ALPHA_UNKNOWN
    drv = derive_params(params, mode)
    gb = buckets_for(drv.delta)
    sk = TreeSketch()
    table = _Table()
    sources_seen: set[int] = set()
    in_arc_phase = False
    n_sq = params.n * params.n if capped else 1 << 63
    p_max_run = 1
    cutoff = gb.floor_log(p_max_run, n_sq)
    height = 1
    seen = updates = 0
    for chunk in streaming._chunks(events):
        cols = streaming._columns(chunk)
        updates += len(cols[0])
        if isinstance(chunk, ArcChunk):
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
                    elif sk.move_if_present(d_dst, u_dst, new_depth)[1]:
                        sk.prune_smallest(cutoff)
                        sk.note_peak()
                    table.raise_depth(dst, new_depth)
                    height = max(height, new_depth)
            continue
        for job_id, p in zip(cols[0], cols[1]):
            u = gb.index(p)
            if in_arc_phase:
                raise InputContractError(f"job {job_id} arrived after arc events began")
            table.insert(job_id, u)
            sk.note_processing_time(p)
            if not capped:
                sk.add(1, u)
                continue
            seen += 1
            if p * n_sq < p_max_run:
                continue
            if p > p_max_run:
                p_max_run = p
                cutoff = gb.floor_log(p_max_run, n_sq)
            if sk.add(1, u):
                sk.prune_smallest(cutoff)
            sk.note_peak()
    n = seen if capped else sk.total_counted
    if n == 0:
        raise InputContractError("empty job stream")
    if capped and n != params.n:
        raise InputContractError(f"stream carried {n} jobs but n={params.n} was declared")
    top = sk.p_max
    u_lo, u_hi = (cutoff if capped else gb.index(sk.p_min)), gb.index(top)
    final = sketch_finalize_alpha(sk, n, gb) if capped else sk
    u_top = final.top_bucket(math.ceil(params.alpha * n)) if capped else None
    c_run = ceil_div(sk.p_max, sk.p_min if u_top is None else gb.bound(u_top))
    loads = final.depth_loads(streaming.RoundedValues(gb, u_lo, u_hi, float(top)), height) / params.m
    tail = ceil_div(top, n) if capped else 0
    held = table.held_depths(height) if capped and tight else None
    A, times = streaming.totals(loads, top, tight, tail=tail, slack=tail, held=held)
    if capped:
        ok = 3.0 * params.m * (height + 1) * c_run <= 2.0 * n * params.alpha * params.epsilon
    else:
        ok = 3.0 * params.m * height * c_run <= 2.0 * n * params.epsilon
    extras = {"n": n, "delta": drv.delta, "k": drv.k, "p_max": sk.p_max, "input_sketch": final,
              "p_min": sk.p_min, "c_discovered": c_run, "h_discovered": height, "depth_table": table}
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
