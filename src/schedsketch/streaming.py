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
  skipped, the nodes below that cutoff are evicted, and one
  ceil(p_max/n) term pays for both.

The capped modes evict eagerly: each rise of the cutoff drops every
node below it.  The paper's lazy rule, at most the smallest node per
new node, keeps the same nodes at or above the final cutoff and reaches
the same peak node count (see `sketch`), so every result is the same.

The engine reads its input through one door, `_chunks`, as int64
column chunks of consecutive jobs or arcs: `fileio.iter_chunks` and
`Instance.chunks` yield them, and events (`Job`, `Arc`) and chunks with
list columns are packed into them.  A value outside int64 raises there.

The arc-driven modes keep per-job id, bucket and depth columns
(`sketch.DepthColumns`) on every input, and raise the depths one arc
chunk at a time.  `stream_unknown` counts the sketch once, at the end
of the stream; `stream_alpha_unknown` counts its jobs at depth 1 as
they come, as its cutoff needs, marking a skipped job's bucket -1.
The cutoff is final once the arcs begin, so a job holds a count
exactly when its bucket is at or above it: a skipped job lies below
(its mark), and an evicted one went as the cutoff rose past it.  Each
arc chunk drops the depth raises of jobs without a count and moves the
others' counts with one `TreeSketch.move_counts` call, whose peak is
that of a walk that moves a count as each arc arrives.  A move keeps
its bucket, so no move evicts.

A job chunk with given depths is checked once, by vectorized masks,
and raises the error of its first bad row.  The counted modes (all but
`stream_unknown`) then hand each job chunk to one counter
(`_count_chunk`), which takes it whole.

A zero-row job chunk is passed over in every mode.

Every returned `RunReport` carries ``guarantee_condition_met``: the
machine-count bound under which the run is a (1+epsilon)-approximation.
The A value itself is always sandwiched between the optimum and a
rounded/padded upper bound regardless of that condition.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Iterable, Iterator, NoReturn, Sequence

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
from .errors import InputContractError
from .model import ArcChunk, Chunk, Job, JobChunk, RunReport, ScheduleSketch, StreamEvent
from .sketch import DepthColumns, TreeSketch


def totals(
    loads,
    pad: int,
    tight: bool,
    *,
    tail: int = 0,
    stretch: float = 1.0,
    slack: int = 0,
    held: Sequence[bool] | None = None,
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


EVENT_BATCH = 256  # rows per int64 chunk that `_chunks` packs from events and list columns


class _Row(Job):
    """A row of a job chunk with list columns, packed as a `Job` event is; the engine checks it."""

    def __post_init__(self):
        pass


def _packed(kind, rows: list) -> Iterator[Chunk]:
    """Events of one kind as one int64 chunk: ArcChunk, or JobChunk with depths (True) or without (False).

    A value outside int64 raises at its row, in the file reader's
    words, after the rows before it are yielded.
    """
    if not rows:
        return
    if kind is ArcChunk:
        cols = list(zip(*rows))
    else:  # no tuple per job: freed tuples stay allocated on the interpreter's free list
        cols = [[ev.id for ev in rows], [ev.p for ev in rows]] + ([[ev.depth for ev in rows]] if kind else [])
    try:  # numpy casts numpy integers to int64 unchecked; a column it reads as another type goes through int()
        arrays = [np.array(col) for col in cols]  # int64 when all are Python ints within it
        arrays = [a if a.dtype == np.int64 else np.array([int(v) for v in c], np.int64) for a, c in zip(arrays, cols)]
    except OverflowError:
        names = ("arc end", "arc end") if kind is ArcChunk else ("job id", "processing time", "depth")
        fields = [(k, name, int(v)) for k, row in enumerate(zip(*cols)) for name, v in zip(names, row)]
        k, name, value = next(field for field in fields if not -(1 << 63) <= field[2] < 1 << 63)
        yield from _packed(kind, rows[:k])
        bound = "is outside the int64 range" if kind is ArcChunk or value < 0 else "exceeds 2**63 - 1"
        raise InputContractError(f"{name} {value} {bound}") from None
    yield ArcChunk(*arrays) if kind is ArcChunk else JobChunk(arrays[0], arrays[1], arrays[2] if kind else None)


def _chunks(items: Iterable[StreamEvent | Chunk]) -> Iterator[Chunk]:
    """The engine's one door: its input as int64 column chunks.

    int64 chunks pass through.  Events, and the rows of chunks with
    list columns, are packed into chunks of at most `EVENT_BATCH` rows,
    a new one where the kind changes or whether a job carries a depth.
    When the input raises, the rows read before it are yielded first.
    """
    kind, rows = None, []  # the batch being packed: its kind (see `_packed`) and its events
    try:
        for ev in items:
            if isinstance(ev, Job):
                key = ev.depth is not None
            elif isinstance(ev, (JobChunk, ArcChunk)):
                full, kind, rows = (kind, rows), None, []
                yield from _packed(*full)
                if all(getattr(col, "dtype", None) == np.int64 for col in ev if col is not None):
                    yield ev
                elif isinstance(ev, ArcChunk):  # other columns (lists): their rows, packed as events are
                    yield from _chunks(zip(*ev))
                else:
                    yield from _chunks(map(_Row, ev.ids, ev.p, repeat(None) if ev.depth is None else ev.depth))
                continue
            else:
                key = ArcChunk
            if key is not kind or len(rows) == EVENT_BATCH:
                full, kind, rows = (kind, rows), key, []
                yield from _packed(*full)
            rows.append(ev)
    except Exception:  # a batch is cleared before it is packed, so none is yielded twice
        yield from _packed(kind, rows)
        raise
    yield from _packed(kind, rows)


def _reject_jobs(chunk: JobChunk, gb: GeometricBuckets, h: int, p_cap: float) -> NoReturn:
    """Raise the error of the first bad row of a job chunk with given depths.

    Its checks, in order: ``p >= 1``, a depth, ``depth <= h``,
    ``p <= p_cap`` (c, in the uncapped mode) and ``depth >= 1``.
    """
    ids, p, depth = chunk
    k = 0 if depth is None else int(((p < 1) | (depth > h) | (p > p_cap) | (depth < 1)).argmax())
    job_id, p_k, d = int(ids[k]), int(p[k]), None if depth is None else int(depth[k])
    gb.index(p_k)  # raises for p < 1
    if d is None:
        raise InputContractError(f"job {job_id} carries no depth; this mode requires depths")
    if d > h:
        raise InputContractError(f"job {job_id} has depth {d} > h={h}")
    if p_k > p_cap:
        raise InputContractError(f"job {job_id} has p={p_k} > c={p_cap}")
    raise InputContractError(f"depth must be >= 1, got {d}")


def _count_chunk(
    p: np.ndarray,
    u: np.ndarray,
    depth: np.ndarray,
    sk: TreeSketch,
    gb: GeometricBuckets,
    n_sq: int,
    p_hi: int,
    p_max_run: int,
    cutoff: int,
) -> tuple[int, int]:
    """A counted mode on a checked job chunk with buckets ``u``; returns the new running maximum and cutoff.

    Skips each job below the running maximum before it over ``n_sq``
    (none when ``n_sq`` is past int64, as in the uncapped mode, whose
    cutoff stays below every bucket), sets its entry of ``u`` to -1 (no
    count), and counts the kept jobs with one `TreeSketch.count_chunk`
    call.  The cutoff in force at a kept job is floor_log of the maximum
    up to it over ``n_sq``.  A skip needs a maximum above n^2, so every
    cutoff from then on is at least 0, above the mark.
    """
    if n_sq >> 63 == 0:  # an n_sq past int64 skips no job: p * n_sq > 2**63 - 1 >= every maximum
        # the maximum up to each job; a skipped job lies below the one before it, so kept jobs alone set it
        run_max = np.maximum.accumulate(np.concatenate(([p_max_run], p)))
        keep = p > (run_max[:-1] - 1) // n_sq  # not p * n_sq < the maximum before, exactly and within int64
        u[~keep] = -1
        u, depth, run_max = u[keep], depth[keep], run_max[1:][keep]
        if p_hi > p_max_run:
            p_max_run, cutoff = p_hi, gb.floor_log(p_hi, n_sq)
    # no node falls below the uncapped mode's cutoff, so it never asks for the cutoffs (nor needs run_max)
    sk.count_chunk(u, depth, cutoff, lambda i: [gb.floor_log(m, n_sq) for m in run_max[i].tolist()])
    return p_max_run, cutoff


def _stream(events: Iterable[StreamEvent | Chunk], params: AlgoParams, mode: str, tight: bool) -> RunReport:
    """The one-pass engine behind all four modes; see the module docstring."""
    given = mode in (STREAM_KNOWN, STREAM_ALPHA_KNOWN)  # depths on the job events
    capped = mode in (STREAM_ALPHA_KNOWN, STREAM_ALPHA_UNKNOWN)  # skip/evict below p_max/n^2
    drv = derive_params(params, mode)
    gb = buckets_for(drv.delta)
    sk = TreeSketch()
    columns = None if given else DepthColumns()
    h, c = params.h if given else 1, params.c  # the arc modes count every job at depth 1
    held = np.zeros(h + 1, dtype=bool)  # held[d]: some job has depth d
    # the uncapped modes skip no job: an n^2 past int64, and a cutoff below every bucket
    n_sq = params.n * params.n if capped else 1 << 63
    p_cap = math.inf if capped else c  # only the uncapped modes bound p by c
    p_max_run = 1
    cutoff = gb.floor_log(p_max_run, n_sq)
    n = arcs = 0  # job and arc events
    for chunk in _chunks(events):
        if isinstance(chunk, ArcChunk):
            arcs += len(chunk.src)
            if given:  # the known-depth modes pass over arc events
                continue
            raises = []
            columns.raise_chunk(chunk.src, chunk.dst, raises if capped else None)  # stream_unknown counts at the end
            b, d, d_new = np.array(raises, dtype=np.int64).reshape(-1, 3).T
            u = columns.u[b]
            counted = u >= cutoff  # kept and never evicted: the cutoff is final once the arcs begin
            sk.move_counts(u[counted], d[counted], d_new[counted])
            continue
        _, p, depth = chunk
        n += p.size  # each job is counted, skipped or evicted, or raises
        if p.size == 0:
            continue
        p_lo, p_hi = int(p.min()), int(p.max())
        if given:
            d_lo, d_hi = (0, 0) if depth is None else (int(depth.min()), int(depth.max()))  # no depths: rejected
            if p_lo < 1 or d_lo < 1 or d_hi > h or p_hi > p_cap:
                _reject_jobs(chunk, gb, h, p_cap)
            held[depth] = True
        elif columns.ids is not None:  # frozen by the first arc chunk
            gb.index(p[0])  # the job's p is checked before its place in the stream
            raise InputContractError(f"job {chunk.ids[0]} arrived after arc events began")
        elif p_lo < 1:  # raises at its row, after inserting the rows before it: a repeated id there comes first
            k = int((p < 1).argmax())
            columns.insert_chunk(chunk.ids[:k], gb.index_array(p[:k]))
            gb.index(p[k])
        us = gb.index_array(p)
        if not given:
            depth = np.ones_like(us)
        sk.note_processing_time(p_lo)
        sk.note_processing_time(p_hi)
        if given or capped:
            p_max_run, cutoff = _count_chunk(p, us, depth, sk, gb, n_sq, p_hi, p_max_run, cutoff)
        if not given:
            columns.insert_chunk(chunk.ids, us)  # with the skips marked
    h_run = h
    if not given:
        columns.freeze()
        columns.check_ids()
        if not capped:
            columns.count_into(sk)
        h_run = max(columns.depth, default=1)
    if n == 0:
        raise InputContractError("empty job stream")
    if params.n is not None and n != params.n:
        raise InputContractError(f"stream carried {n} jobs but n={params.n} was declared")

    if mode == STREAM_KNOWN:
        top, u_lo, u_hi = c, 0, drv.k
    else:  # sk.p_max == p_max_run: the largest job is never skipped
        top = sk.p_max
        u_lo, u_hi = (cutoff if capped else gb.index(sk.p_min)), gb.index(top)
    final = sk.restrict(u_lo, u_hi) if capped else sk
    if given:
        c_run = c
    else:
        # the capped mode bounds only the top alpha*n jobs, which all lie in
        # bucket u_top or above; without such a bucket, fall back to p_min
        u_top = final.top_bucket(math.ceil(params.alpha * n)) if capped else None
        c_run = ceil_div(sk.p_max, sk.p_min if u_top is None else gb.bound(u_top))
    loads = final.depth_loads(gb, u_lo, u_hi, top, h_run) / params.m
    tail = ceil_div(top, n) if capped else 0
    if tight and not given:
        held = np.bincount(columns.depth, minlength=h_run + 1) > 0
    A, times = totals(loads, top, tight, tail=tail, slack=tail, held=held)
    if capped:  # machine bound m <= 2*n*alpha*eps / (3*(h+1)*c)
        ok = 3.0 * params.m * (h_run + 1) * c_run <= 2.0 * n * params.alpha * params.epsilon
    else:  # machine bound m <= 2*n*eps / (3*h*c)
        ok = 3.0 * params.m * h_run * c_run <= 2.0 * n * params.epsilon
    extras = {"n": n, "delta": drv.delta, "k": drv.k, "p_max": sk.p_max, "input_sketch": final}
    if not given:
        extras.update(p_min=sk.p_min, c_discovered=c_run, h_discovered=h_run, depth_table=columns)
    if capped:
        extras.update(peak_node_count=sk.peak_node_count, counted=final.total_counted)
    return RunReport(
        algorithm=mode,
        A=A,
        schedule_sketch=ScheduleSketch(times, source=mode),
        sketch_node_count=final.node_count,
        samples_drawn=0,
        update_count=n + arcs,
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

    Per-job columns (id, bucket, depth) make this O(n) space; the
    sketch itself stays at one node per occupied (depth, bucket) pair.
    """
    return _stream(events, params, STREAM_UNKNOWN, tight)


def stream_alpha_known(
    events: Iterable[StreamEvent | Chunk], params: AlgoParams, *, tight: bool = False
) -> RunReport:
    """Capped-sketch variant: skip tiny jobs, evict tiny buckets.

    A job is skipped when its processing time is below p_max/n^2 for
    the running maximum p_max; whenever that cutoff rises, every sketch
    node whose bucket falls below it is evicted.  (The paper evicts
    lazily, at most the smallest such node per new node; the results,
    peak node count included, are the same.)  The final value pads each
    depth with p_max and adds a single ceil(p_max/n) term that pays for
    every skipped job.
    """
    return _stream(events, params, STREAM_ALPHA_KNOWN, tight)


def stream_alpha_unknown(
    events: Iterable[StreamEvent | Chunk], params: AlgoParams, *, tight: bool = False
) -> RunReport:
    """Capped sketch with depths discovered from the arc stream.

    Skipped and evicted jobs keep their per-job columns so later arcs
    still propagate depths, but they hold no count, so an arc that
    raises one moves nothing (they are below the smallness cutoff,
    which the final padding already pays for).
    """
    return _stream(events, params, STREAM_ALPHA_UNKNOWN, tight)


STREAMING_ALGORITHMS = {
    STREAM_KNOWN: stream_known,
    STREAM_UNKNOWN: stream_unknown,
    STREAM_ALPHA_KNOWN: stream_alpha_known,
    STREAM_ALPHA_UNKNOWN: stream_alpha_unknown,
}
