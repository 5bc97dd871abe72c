"""One-pass streaming approximation schemes for the makespan.

All four variants are one scheme, run by one engine: read the stream
once, count jobs per (depth, geometric bucket), round each bucket up,
and turn the per-depth loads into padded interval budgets (`totals`).
The sum of the budgets is the approximate makespan A, and their prefix
sums form a schedule sketch that a second pass can expand into a
concrete schedule.

The variants differ in two policies, fixed by the mode before the
stream is read:

* depths *given* on the job events (`stream_known`,
  `stream_alpha_known`) or *discovered* from the arcs that follow the
  jobs in topological order (`stream_unknown`, `stream_alpha_unknown`),
  which also discovers c and h;
* *uncapped* (`stream_known`, `stream_unknown`): every job is counted
  and A pads each depth with the top value; or *capped* at p_max/n^2
  (`stream_alpha_known`, `stream_alpha_unknown`), where only the
  largest alpha*n jobs need be within a factor c: smaller jobs are
  skipped, the smallest bucket is lazily evicted, and one
  ceil(p_max/n) term pays for both.

The engine consumes its input as chunks of consecutive jobs or arcs:
`fileio.iter_chunks` and `Instance.chunks` yield int64 column chunks,
and any other iterable of events (a list of `Job` and `Arc` values) is
batched into small list-backed chunks.  Every mode walks a chunk event
by event with the same checks, errors and counts, except on two
columnar job routes, for which the per-event loop stays the reference:

* `stream_known` and `stream_alpha_known` on an int64 job chunk with
  depths share one counter.  It finds the skipped jobs from the running
  maximum before each job (a prefix maximum; the uncapped mode skips
  none), and buckets and counts the kept ones at once, with one cutoff
  per chunk.  It takes the whole chunk or declines it and changes
  nothing: it declines a chunk that holds a job the loop would reject,
  and one inside which an eviction could fall (the cutoff only rises,
  so the chunk's final cutoff must be at most the smallest bucket of
  both the sketch and the kept jobs).  A declined chunk is walked event
  by event, so the loop raises every per-job error;
* `stream_unknown` on an input whose first chunk is int64 keeps
  per-job id, bucket and depth columns (`sketch.DepthColumns`): one
  `index_array` per job chunk that comes before the arcs, one
  ``searchsorted`` and vectorized checks per arc chunk, a plain
  sequential pass that raises the depths, and one count of the sketch
  at the end of the stream.

A zero-row job chunk is passed over in every mode.

Every returned `RunReport` carries ``guarantee_condition_met``: the
machine-count bound under which the run is a (1+epsilon)-approximation.
The A value itself is always sandwiched between the optimum and a
rounded/padded upper bound regardless of that condition.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import Iterable, Iterator

import numpy as np

from .core import (
    STREAM_ALPHA_KNOWN,
    STREAM_ALPHA_UNKNOWN,
    STREAM_KNOWN,
    STREAM_UNKNOWN,
    AlgoParams,
    GeometricBuckets,
    buckets_for,
    ceil_div,
    derive_params,
    snapped_floor,
)
from .errors import CycleSuspicionError, InputContractError
from .model import ArcChunk, Chunk, Job, JobChunk, RunReport, ScheduleSketch, StreamEvent
from .sketch import DepthColumns, DepthTable, TreeSketch, pair_counts, sketch_finalize_alpha


class RoundedValues:
    """Bucket -> rounded processing time, with the top bucket pinned.

    Non-top buckets use the bucket's upper boundary (1+delta)**(u+1);
    the top bucket is pinned to the known maximum (c, p_max, or c*w0
    depending on the algorithm), so every job's rounded time is between
    its true time and (1+delta) times it.
    """

    def __init__(self, buckets: GeometricBuckets, u_lo: int, u_hi: int, top: float):
        if u_hi < u_lo:
            raise InputContractError(f"empty bucket range [{u_lo}, {u_hi}]")
        self._buckets = buckets
        self.u_lo = u_lo
        self.u_hi = u_hi
        self.top = top

    def value(self, u: int) -> float:
        if u == self.u_hi:
            return self.top
        if not (self.u_lo <= u < self.u_hi):
            raise InputContractError(f"bucket {u} outside [{self.u_lo}, {self.u_hi}]")
        return self._buckets.rounded_value(u)


def totals(
    loads,
    pad: int,
    tight: bool,
    *,
    tail: int = 0,
    stretch: float = 1.0,
    slack: int = 0,
    held: list[bool] | None = None,
) -> tuple[int, tuple[int, ...]]:
    """Approximate makespan A and sketch times from per-depth loads L_d.

    ``A = sum_d (floor(L_d) + pad) + tail`` and
    ``t_d = sum_{d' <= d} (floor(L_d' / stretch) + pad + slack)``.  Under
    ``tight``, depths with zero load add nothing to either sum, except
    that a depth ``d`` with ``held[d]`` true (it holds jobs, all below
    the capped modes' cutoff, which ``slack`` covers) gets width
    ``slack``.  The streaming modes stretch by 1 (exact); the samplers
    stretch by 1 - delta and add their estimation slack.
    """
    a_total = tail
    t_total = 0
    times = []
    for d, load in enumerate(loads, 1):
        if not (tight and load == 0.0):
            a_total += snapped_floor(load) + pad
            t_total += snapped_floor(load / stretch) + pad + slack
        elif held is not None and held[d]:
            t_total += slack
        times.append(t_total)
    return a_total, tuple(times)


EVENT_BATCH = 256  # events per chunk that `_chunks` builds from single events


def _chunks(items: Iterable[StreamEvent | Chunk]) -> Iterator[Chunk]:
    """The engine's input as chunks: chunks pass through, runs of single events are batched.

    A batch holds at most `EVENT_BATCH` events, as lists of the events'
    own values.  When the input raises, the events read before it are
    yielded first, so an engine error on them still comes first.
    """
    cols: tuple[list, ...] = ()
    kind = None
    try:
        for ev in items:
            if isinstance(ev, Job):
                if kind is not JobChunk or len(cols[0]) == EVENT_BATCH:
                    if cols:
                        yield kind(*cols)
                    kind, cols = JobChunk, ([], [], [])
                cols[0].append(ev.id)
                cols[1].append(ev.p)
                cols[2].append(ev.depth)
            elif isinstance(ev, (JobChunk, ArcChunk)):
                if cols:
                    yield kind(*cols)
                kind, cols = None, ()
                yield ev
            else:
                if kind is not ArcChunk or len(cols[0]) == EVENT_BATCH:
                    if cols:
                        yield kind(*cols)
                    kind, cols = ArcChunk, ([], [])
                src, dst = ev
                cols[0].append(src)
                cols[1].append(dst)
    except Exception:
        if cols:
            yield kind(*cols)
        raise
    if cols:
        yield kind(*cols)


def _arrays(chunk: Chunk) -> list:
    """A chunk's columns as int64 arrays (None stays None)."""
    return [col if col is None else np.asarray(col, dtype=np.int64) for col in chunk]


def _columns(chunk: Chunk) -> list:
    """A chunk's columns as lists of Python ints (None stays None)."""
    return [col.tolist() if isinstance(col, np.ndarray) else col for col in chunk]


def _count_given(
    chunk: JobChunk,
    sk: TreeSketch,
    gb: GeometricBuckets,
    held: list[bool],
    n_sq: int,
    p_cap: float,
    p_max_run: int,
    cutoff: int,
) -> tuple[int, int] | None:
    """A given-depth mode on a chunk of int64 columns: the whole chunk, or nothing.

    Skips each job below the running maximum before it over ``n_sq``,
    as the per-job loop does, and counts the kept jobs with one
    `TreeSketch.add_counts` call; returns the new running maximum and
    cutoff.  The uncapped mode passes an ``n_sq`` past int64, which
    skips no job and keeps the cutoff below every bucket, and its
    ``p_cap`` c.  The cutoff only rises, so when the chunk's final
    cutoff is at most the smallest bucket of both the sketch and the
    kept jobs, no lazy prune inside the chunk would evict, and the node
    count, hence ``peak_node_count``, only grows.  Otherwise, and when a
    ``p`` lies outside 1..p_cap or a depth outside 1..h (the loop's
    errors, or a depth-0 job that the capped loop skips) or the running
    maximum is past int64 (an earlier event), returns None and changes
    nothing, so the caller walks the chunk event by event.
    """
    _, p, depth = chunk
    p_lo, top = int(p.min()), int(p.max())
    if p_lo < 1 or top > p_cap or depth.min() < 1 or depth.max() >= len(held) or p_max_run >> 63:
        return None
    keep = slice(None)  # an n_sq past int64 skips no job: p * n_sq > 2**63 - 1 >= every maximum
    if n_sq >> 63 == 0:
        # the maximum before each job; a skipped job lies below it, so kept jobs alone set it
        run_max = np.maximum.accumulate(np.concatenate(([p_max_run], p[:-1])))
        keep = p > (run_max - 1) // n_sq  # not p * n_sq < run_max, exactly and within int64
    if top > p_max_run:
        p_max_run, cutoff = top, gb.floor_log(top, n_sq)
    kept_p, kept_depth = p[keep], depth[keep]
    if kept_p.size:
        low = gb.index(int(kept_p.min()))
        if sk.node_count:
            low = min(low, sk.smallest_bucket())
        if cutoff > low:  # the eviction guard
            return None
        us, ds, counts = pair_counts(gb.index_array(kept_p), kept_depth)
        sk.add_counts(zip(us, ds), counts)
        sk.note_peak()
    for d in np.flatnonzero(np.bincount(depth)).tolist():
        held[d] = True
    sk.note_processing_time(p_lo)
    sk.note_processing_time(top)
    return p_max_run, cutoff


def _stream(events: Iterable[StreamEvent | Chunk], params: AlgoParams, mode: str, tight: bool) -> RunReport:
    """The one-pass engine behind all four modes; see the module docstring."""
    given = mode in (STREAM_KNOWN, STREAM_ALPHA_KNOWN)  # depths on the job events
    capped = mode in (STREAM_ALPHA_KNOWN, STREAM_ALPHA_UNKNOWN)  # skip/evict below p_max/n^2
    drv = derive_params(params, mode)
    gb = buckets_for(drv.delta)
    sk = TreeSketch()
    chunks = _chunks(events)
    first = next(chunks, None)
    if first is not None:
        chunks = chain((first,), chunks)
    # stream_unknown on int64 chunks keeps columns and counts the sketch at the end
    columnar = mode == STREAM_UNKNOWN and first is not None and isinstance(first[0], np.ndarray)
    columns = DepthColumns() if columnar else None
    table = DepthTable()
    index, floor_log = gb.index, gb.floor_log
    add, note = sk.add, sk.note_processing_time
    insert, get, raise_depth = table.insert, table.get, table.raise_depth
    sources_seen: set[int] = set()
    in_arc_phase = False
    h, c = params.h, params.c
    held = [False] * (h + 1) if given else None  # held[d]: some job has depth d
    # the uncapped modes skip no job: an n^2 past int64, and a cutoff below every bucket
    n_sq = params.n * params.n if capped else 1 << 63
    p_cap = math.inf if capped else c  # only the uncapped modes bound p by c
    p_max_run = 1
    cutoff = floor_log(p_max_run, n_sq)
    d = height = 1  # discovered depths start at 1
    seen = 0
    updates = 0
    for chunk in chunks:
        if isinstance(chunk, ArcChunk):
            updates += len(chunk.src)
            if given:  # the known-depth modes pass over arc events
                continue
            in_arc_phase = True
            if columns is not None:
                columns.raise_chunk(*_arrays(chunk))
                continue
            for src, dst in zip(*_columns(chunk)):
                if dst in sources_seen:
                    raise CycleSuspicionError(
                        f"arc ({src} -> {dst}) arrived after {dst} was already a source; "
                        "arc stream is not in topological order"
                    )
                sources_seen.add(src)
                d_src, _ = get(src)
                d_dst, u_dst = get(dst)
                if d_src + 1 > d_dst:
                    new_depth = d_src + 1
                    if new_depth > len(table):
                        raise CycleSuspicionError(f"depth {new_depth} exceeds job count {len(table)}")
                    if src == dst:  # the source check above cannot see an arc from a job to itself
                        raise CycleSuspicionError(f"self-loop arc ({src} -> {dst}) forms a cycle")
                    if not capped:
                        sk.move(d_dst, u_dst, new_depth)
                    else:
                        # a skipped or evicted job has no count to move
                        moved, created = sk.move_if_present(d_dst, u_dst, new_depth)
                        if moved and created:
                            sk.prune_smallest(cutoff)
                            sk.note_peak()
                    raise_depth(dst, new_depth)
                    if new_depth > height:
                        height = new_depth
            continue
        updates += len(chunk.ids)
        if len(chunk.ids) == 0:
            continue
        if given and isinstance(chunk.depth, np.ndarray):
            state = _count_given(chunk, sk, gb, held, n_sq, p_cap, p_max_run, cutoff)
            if state is not None:
                p_max_run, cutoff = state
                seen += len(chunk.ids)
                continue
        if columns is not None and not in_arc_phase:
            ids, ps, _ = _arrays(chunk)
            columns.insert_chunk(ids, gb.index_array(ps))
            note(int(ps.min()))
            note(int(ps.max()))
            continue
        ids, ps, depths = _columns(chunk)
        for job_id, p, job_depth in zip(ids, ps, repeat(None) if depths is None else depths):
            u = index(p)
            if given:
                d = job_depth
                if d is None:
                    raise InputContractError(f"job {job_id} carries no depth; this mode requires depths")
                if d > h:
                    raise InputContractError(f"job {job_id} has depth {d} > h={h}")
                if p > p_cap:
                    raise InputContractError(f"job {job_id} has p={p} > c={c}")
                held[d] = True
            else:
                if in_arc_phase:
                    raise InputContractError(f"job {job_id} arrived after arc events began")
                insert(job_id, u)
            note(p)
            if not capped:
                add(d, u)
                continue
            seen += 1  # the uncapped modes read n off the sketch, which counts every job
            if p * n_sq < p_max_run:
                continue
            if p > p_max_run:
                p_max_run = p
                cutoff = floor_log(p_max_run, n_sq)
            if add(d, u):
                sk.prune_smallest(cutoff)
            sk.note_peak()
    if columns is not None:
        columns.count_into(sk)
        height = max(columns.depth, default=1)
        table = columns
    n = seen if capped else sk.total_counted
    if n == 0:
        raise InputContractError("empty job stream")
    if capped and n != params.n:
        raise InputContractError(f"stream carried {n} jobs but n={params.n} was declared")

    h_run = h if given else height
    if mode == STREAM_KNOWN:
        top, u_lo, u_hi = c, 0, drv.k
    else:  # sk.p_max == p_max_run: the largest job is never skipped
        top = sk.p_max
        u_lo, u_hi = (cutoff if capped else index(sk.p_min)), index(top)
    final = sketch_finalize_alpha(sk, n, gb) if capped else sk
    if given:
        c_run = c
    else:
        # the capped mode bounds only the top alpha*n jobs, which all lie in
        # bucket u_top or above; without such a bucket, fall back to p_min
        u_top = final.top_bucket(math.ceil(params.alpha * n)) if capped else None
        c_run = ceil_div(sk.p_max, sk.p_min if u_top is None else gb.bound(u_top))
    loads = final.depth_loads(RoundedValues(gb, u_lo, u_hi, float(top)), h_run) / params.m
    tail = ceil_div(top, n) if capped else 0
    if capped and tight and not given:
        held = table.held_depths(h_run)
    A, times = totals(loads, top, tight, tail=tail, slack=tail, held=held)
    if capped:  # machine bound m <= 2*n*alpha*eps / (3*(h+1)*c)
        ok = 3.0 * params.m * (h_run + 1) * c_run <= 2.0 * n * params.alpha * params.epsilon
    else:  # machine bound m <= 2*n*eps / (3*h*c)
        ok = 3.0 * params.m * h_run * c_run <= 2.0 * n * params.epsilon
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


def stream_known(
    events: Iterable[StreamEvent | Chunk], params: AlgoParams, *, tight: bool = False
) -> RunReport:
    """Factor-c jobs with given depths: one-pass counting over buckets 0..k.

    Precondition: 1 <= p_j <= c and 1 <= depth <= h for every job.
    """
    return _stream(events, params, STREAM_KNOWN, tight)


def stream_unknown(
    events: Iterable[StreamEvent | Chunk], params: AlgoParams, *, tight: bool = False
) -> RunReport:
    """Jobs then topologically ordered arcs; c, h and depths discovered.

    Per-job state (the depth table, or its columns on int64 chunks)
    makes this O(n) space; the sketch itself stays at one node per
    occupied (depth, bucket) pair.
    """
    return _stream(events, params, STREAM_UNKNOWN, tight)


def stream_alpha_known(
    events: Iterable[StreamEvent | Chunk], params: AlgoParams, *, tight: bool = False
) -> RunReport:
    """Capped-sketch variant: skip tiny jobs, lazily evict tiny buckets.

    A job is skipped when its processing time is below p_max/n^2 for
    the running maximum p_max; whenever a new sketch node is created,
    the smallest-bucket node is evicted if it fell below that cutoff.
    The final value pads each depth with p_max and adds a single
    ceil(p_max/n) term that pays for every skipped job.
    """
    return _stream(events, params, STREAM_ALPHA_KNOWN, tight)


def stream_alpha_unknown(
    events: Iterable[StreamEvent | Chunk], params: AlgoParams, *, tight: bool = False
) -> RunReport:
    """Capped sketch with depths discovered from the arc stream.

    Skipped and evicted jobs keep their depth-table records so later
    arcs still propagate depths; their sketch counts, when absent, are
    simply not moved (they are below the smallness cutoff, which the
    final padding already pays for).
    """
    return _stream(events, params, STREAM_ALPHA_UNKNOWN, tight)


STREAMING_ALGORITHMS = {
    STREAM_KNOWN: stream_known,
    STREAM_UNKNOWN: stream_unknown,
    STREAM_ALPHA_KNOWN: stream_alpha_known,
    STREAM_ALPHA_UNKNOWN: stream_alpha_unknown,
}
