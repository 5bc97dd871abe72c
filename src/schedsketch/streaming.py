"""One-pass streaming approximation schemes for the makespan.

All four variants are one scheme, run by one engine: read the stream
once, count jobs per (depth, geometric bucket), round each bucket up,
and turn the per-depth loads into padded interval budgets.
The sum of the budgets is the approximate makespan A, and their prefix
sums form a schedule sketch that a second pass can expand into a
concrete schedule.  `finish`, which the samplers end in too, does this
last step and builds the report.

The variants differ in two policies, fixed by the mode (`core.GIVEN`,
`core.CAPPED`) before the stream is read:

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

`stream_alpha_known` evicts eagerly: each rise of the cutoff drops
every node below it.  The paper's lazy rule, at most the smallest node
per new node, keeps the same nodes at or above the final cutoff and
reaches the same peak node count (see `sketch`), so every result is the
same.  `stream_alpha_unknown` counts at the end and drops them there.

The engine reads its input through one door, `_chunks`, as int64
column chunks of consecutive jobs or arcs: `fileio.iter_chunks` and
`Instance.chunks` yield them, and events (`Job`, `Arc`) and chunks with
list columns are packed into them.  A value outside int64 raises there.
A zero-row job chunk is passed over in every mode.  An error of one row
carries the row's stream position (`InputContractError.row`).

The given-depth modes keep no per-job state: a job chunk is checked
once, by vectorized masks, and raises the error of its first bad row,
and arc events are counted, not read, so neither ids 1..n nor arc order
is checked.  They hand each job chunk to one counter (`_count_chunk`),
which takes it whole.

The arc-driven modes keep per-job bucket, depth and first-source
columns (`sketch.DepthColumns`, which `fileio.read_instance` runs too),
which check ids 1..n when the job section ends and each arc's ends and
order, and raise the depths one arc chunk at a time.  Both count the
sketch once, at the end of the stream, every job at its final depth,
in slices of `COUNT_ROWS` rows or of twice the sketch's nodes if more.
`stream_alpha_unknown` runs the counter's skip step (`_skip_chunk`) on
each job chunk, which marks a skipped job's bucket -1; the finish
drops every bucket below the final cutoff, so skipped and evicted jobs
hold no count.

Every returned `RunReport` carries ``guarantee_condition_met``: whether
m meets the machine bound under which the run is a
(1+epsilon)-approximation (`core.machine_bound_met`, at the run's n and
its given or discovered h and c).
The A value itself is always sandwiched between the optimum and a
rounded/padded upper bound regardless of that condition.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Iterable, Iterator, NoReturn

import numpy as np

from .core import (
    CAPPED,
    GIVEN,
    STREAM_ALPHA_KNOWN,
    STREAM_ALPHA_UNKNOWN,
    STREAM_KNOWN,
    STREAM_UNKNOWN,
    AlgoParams,
    GeometricBuckets,
    buckets_for,
    ceil_div,
    derive_params,
    machine_bound_met,
    snapped_floor,
)
from .errors import InputContractError
from .model import ArcChunk, Chunk, Job, JobChunk, RunReport, ScheduleSketch, StreamEvent
from .sketch import DepthColumns, TreeSketch


def finish(mode: str, params: AlgoParams, loads: np.ndarray, top: int, tight: bool, observed: tuple, counts: tuple,
           extras: dict, *, tail: int = 0, stretch: float = 1.0, slack: int = 0, held=None) -> RunReport:
    """The one finish of all six modes: the report of a run from its per-depth loads.

    With L_d the loads over m, ``A = sum_d (floor(L_d) + top) + tail``
    and ``t_d = sum_{d' <= d} (floor(L_d' / stretch) + top + slack)``.
    Under ``tight``, depths with zero load add nothing to either sum,
    except that a depth ``d`` with ``held[d]`` true (it holds jobs, all
    below the capped modes' cutoff, which ``slack`` covers) gets width
    ``slack``.  The streaming modes stretch by 1 (exact); the samplers
    stretch by 1 - delta and add their estimation slack.
    ``guarantee_condition_met`` is `core.machine_bound_met` at the run's
    ``observed`` (n, h, c); ``counts`` are its sketch nodes, samples
    drawn and updates, and ``extras`` gains n.
    """
    a_total = tail
    t_total = 0
    times = []
    for d, load in enumerate(loads / params.m, 1):
        if not (tight and load == 0.0):
            a_total += snapped_floor(load) + top
            t_total += snapped_floor(load / stretch) + top + slack
        elif held is not None and held[d]:
            t_total += slack
        times.append(t_total)
    n, h, c = observed
    nodes, samples, updates = counts
    return RunReport(
        algorithm=mode,
        A=a_total,
        schedule_sketch=ScheduleSketch(tuple(times), source=mode),
        sketch_node_count=nodes,
        samples_drawn=samples,
        update_count=updates,
        params=params,
        guarantee_condition_met=machine_bound_met(mode, params.m, n, h, c, params.alpha, params.epsilon),
        extras={"n": n, **extras},
    )


EVENT_BATCH = 256  # rows per int64 chunk that `_chunks` packs from events and list columns
COUNT_ROWS = 1 << 14  # rows per slice of the arc modes' final count, while the sketch holds under half as many nodes


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


def _reject_jobs(chunk: JobChunk, gb: GeometricBuckets, h: int, p_cap: float, start: int) -> NoReturn:
    """Raise the error of the first bad row of a job chunk with given depths, ``start`` jobs into the stream.

    Its checks, in order: ``p >= 1``, a depth, ``depth <= h``,
    ``p <= p_cap`` (c, in the uncapped mode) and ``depth >= 1``.
    """
    ids, p, depth = chunk
    k = 0 if depth is None else int(((p < 1) | (depth > h) | (p > p_cap) | (depth < 1)).argmax())
    job_id, p_k, d, row = int(ids[k]), int(p[k]), None if depth is None else int(depth[k]), ("J", start + k)
    gb.index(p_k)  # raises for p < 1
    if d is None:
        raise InputContractError(f"job {job_id} carries no depth; this mode requires depths", row)
    if d > h:
        raise InputContractError(f"job {job_id} has depth {d} > h={h}", row)
    if p_k > p_cap:
        raise InputContractError(f"job {job_id} has p={p_k} > c={p_cap}", row)
    raise InputContractError(f"depth must be >= 1, got {d}", row)


def _skip_chunk(
    p: np.ndarray, u: np.ndarray, gb: GeometricBuckets, n_sq: int, p_hi: int, p_max_run: int, cutoff: int
) -> tuple:
    """The counted modes' skip step on a checked job chunk with buckets ``u``.

    Skips each job below the running maximum before it over ``n_sq``
    and sets its entry of ``u`` to -1 (no count).  Returns the kept
    jobs, the maximum up to each job, and the new running maximum and
    cutoff, floor_log of that maximum over ``n_sq``.  An ``n_sq`` past
    int64, as in the uncapped mode, skips no job: every row is kept, and
    the maxima are None.  A skip needs a maximum above n^2, so every
    cutoff from then on is at least 0, above the mark.
    """
    if n_sq >> 63:  # p * n_sq > 2**63 - 1 >= every maximum
        return slice(None), None, p_max_run, cutoff
    # the maximum up to each job; a skipped job lies below the one before it, so kept jobs alone set it
    run_max = np.maximum.accumulate(np.concatenate(([p_max_run], p)))
    keep = p > (run_max[:-1] - 1) // n_sq  # not p * n_sq < the maximum before, exactly and within int64
    u[~keep] = -1
    if p_hi > p_max_run:
        p_max_run, cutoff = p_hi, gb.floor_log(p_hi, n_sq)
    return keep, run_max[1:], p_max_run, cutoff


def _count_chunk(p: np.ndarray, u: np.ndarray, depth: np.ndarray, sk: TreeSketch, gb: GeometricBuckets, n_sq: int,
                 p_hi: int, p_max_run: int, cutoff: int) -> tuple[int, int]:
    """A given-depth mode on a checked job chunk with buckets ``u``; returns the new running maximum and cutoff.

    Runs `_skip_chunk` and counts the kept jobs with one
    `TreeSketch.count_chunk` call.  The cutoff in force at a kept job is
    floor_log of the maximum up to it over ``n_sq``; the sketch asks for
    them only when a node falls below one, and gets them from one
    `GeometricBuckets.floor_log_array` call.
    """
    keep, run_max, p_max_run, cutoff = _skip_chunk(p, u, gb, n_sq, p_hi, p_max_run, cutoff)
    # no node falls below the uncapped mode's cutoff, which lies below every bucket, so it never asks
    sk.count_chunk(u[keep], depth[keep], cutoff, lambda i: gb.floor_log_array(run_max[keep][i], n_sq))
    return p_max_run, cutoff


def _stream(events: Iterable[StreamEvent | Chunk], params: AlgoParams, mode: str, tight: bool) -> RunReport:
    """The one-pass engine behind all four modes; see the module docstring."""
    given = mode in GIVEN  # depths on the job events
    capped = mode in CAPPED  # skip/evict below p_max/n^2
    drv = derive_params(params, mode)
    gb = buckets_for(drv.delta)
    sk = TreeSketch()
    columns = None if given else DepthColumns()
    h, c = params.h if given else 1, params.c  # the arc modes find h from the depths
    held = np.zeros(h + 1, dtype=bool)  # held[d]: some job has depth d
    # the uncapped modes skip no job: an n^2 past int64, and a cutoff below every bucket
    n_sq = params.n * params.n if capped else 1 << 63
    p_cap = math.inf if capped else c  # only the uncapped modes bound p by c
    p_max_run = 1
    cutoff = gb.floor_log(p_max_run, n_sq)
    n = arcs = 0  # job and arc events
    try:
        for chunk in _chunks(events):
            if isinstance(chunk, ArcChunk):
                arcs += len(chunk.src)
                if not given:  # the known-depth modes pass over arc events
                    columns.raise_chunk(chunk.src, chunk.dst)
                continue
            _, p, depth = chunk
            n += p.size  # each job is counted, skipped or evicted, or raises
            if p.size == 0:
                continue
            p_lo, p_hi = int(p.min()), int(p.max())
            if given:
                d_lo, d_hi = (0, 0) if depth is None else (int(depth.min()), int(depth.max()))  # no depths: rejected
                if p_lo < 1 or d_lo < 1 or d_hi > h or p_hi > p_cap:
                    _reject_jobs(chunk, gb, h, p_cap, n - p.size)
                held[depth] = True
            elif columns.u is not None:  # frozen by the first arc chunk
                gb.index(p[0])  # the job's p is checked before its place in the stream
                raise InputContractError(f"job {chunk.ids[0]} arrived after arc events began")
            elif p_lo < 1:  # raises at its row, after inserting the rows before it for `freeze` to check
                k = int((p < 1).argmax())
                columns.insert_chunk(chunk.ids[:k], gb.index_array(p[:k]))
                gb.index(p[k])
            us = gb.index_array(p)
            sk.note_processing_time(p_lo)
            sk.note_processing_time(p_hi)
            if given:
                p_max_run, cutoff = _count_chunk(p, us, depth, sk, gb, n_sq, p_hi, p_max_run, cutoff)
                continue
            if capped:
                _, _, p_max_run, cutoff = _skip_chunk(p, us, gb, n_sq, p_hi, p_max_run, cutoff)
            columns.insert_chunk(chunk.ids, us)  # with the skips marked
    except Exception:  # a repeated id on an earlier row wins; a gap waits for the job section's end
        if columns is not None:
            columns.freeze(ended=False)
        raise
    if not given:
        columns.end()
        # every job at its final depth; the capped mode's finish drops the skipped (marked -1) and evicted
        # jobs, which lie below the final cutoff.  Slices keep the count's temporaries one slice long;
        # past COUNT_ROWS they grow with the sketch, so each merge of the sketch pays for a slice as long.
        lo = 0
        while lo < columns.u.size:
            hi = lo + max(COUNT_ROWS, 2 * sk.node_count)
            sk.count_chunk(columns.u[lo:hi], columns.depth[lo:hi])
            lo = hi
        h = int(columns.depth.max(initial=1))
    if n == 0:
        raise InputContractError("empty job stream")
    if params.n is not None and n != params.n:
        raise InputContractError(f"stream carried {n} jobs but n={params.n} was declared")

    if given and not capped:  # the factor-c mode: buckets 0..k, the top pinned to c
        top, u_lo, u_hi = c, 0, drv.k
    else:  # sk.p_max == p_max_run: the largest job is never skipped
        top = sk.p_max
        u_lo, u_hi = (cutoff if capped else gb.index(sk.p_min)), gb.index(top)
    final = sk.restrict(u_lo, u_hi) if capped else sk
    extras = {"delta": drv.delta, "k": drv.k, "p_max": sk.p_max, "input_sketch": final}
    if not given:  # the c and h the arc modes discover
        # the capped mode bounds only the top alpha*n jobs, which all lie in
        # bucket u_top or above; without such a bucket, fall back to p_min
        u_top = final.top_bucket(math.ceil(params.alpha * n)) if capped else None
        c = ceil_div(sk.p_max, sk.p_min if u_top is None else gb.bound(u_top))
        held = np.bincount(columns.depth, minlength=h + 1) > 0 if tight else held
        extras.update(p_min=sk.p_min, c_discovered=c, h_discovered=h, depth_table=columns)
    if capped:  # stream3's peak node count is its space; stream4 counts once, at the end, and reports none
        extras.update({"peak_node_count": sk.peak_node_count} if given else {}, counted=final.total_counted)
    tail = ceil_div(top, n) if capped else 0
    return finish(mode, params, final.depth_loads(gb, u_lo, u_hi, top, h), top, tight, (n, h, c),
                  (final.node_count, 0, n + arcs), extras, tail=tail, slack=tail, held=held)


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

    Per-job columns (bucket, depth, first source) make this O(n) space; the
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
    still propagate depths, but they hold no count: the sketch is
    counted once, at the end, over the buckets at or above the final
    cutoff, which a skipped job's -1 mark and an evicted job's bucket
    lie below (the final padding pays for them).
    """
    return _stream(events, params, STREAM_ALPHA_UNKNOWN, tight)


STREAMING_ALGORITHMS = {
    STREAM_KNOWN: stream_known,
    STREAM_UNKNOWN: stream_unknown,
    STREAM_ALPHA_KNOWN: stream_alpha_known,
    STREAM_ALPHA_UNKNOWN: stream_alpha_unknown,
}
