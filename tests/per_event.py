"""Per-event reference for the four stream modes.

The engine checks each job chunk once by vectorized masks, counts it
with one call that evicts eagerly, and keeps the arc modes' per-job
depths as columns (`sketch.DepthColumns`) raised one arc chunk at a
time; the arc modes count their sketch once, at the end of the stream.
This module walks the same input one event at a time instead, and
evicts as the paper does, lazily, with code of its own (`LazySketch`).
A job with a given depth is checked at its row (``p >= 1``, a depth,
``depth <= h``, ``p <= c`` in `stream1`, ``depth >= 1``), then counted,
or skipped below the running maximum over n^2 in the capped modes,
with a lazy prune whenever the count creates a node and a peak update
after it.  In the arc modes every job goes into a dict `DepthTable`
and is counted at depth 1 as it comes; when the job section ends, at
the first arc or the end of the stream, the ids must be 1..n.  Every
arc is checked for a self-loop, then for an unseen end, then against
the set of sources seen so far, and a raised depth moves its job's
count in the sketch at once (`move`; in the capped mode a skipped job
has no count, and an evicted job's count went with its node, which the
lazy rule may not have dropped yet); at the end of the stream a
declared n must equal the job count.
The walk ends in the engine's one finish, `streaming.finish` (`A`,
sketch times, the machine bound and the report), but the capped
modes' bucket window, the per-depth loads and the extras are computed
here.
Only `stream3` reports a peak node count.
Tests hold the engine's results and errors to this walk,
`DepthColumns.freeze`, which keeps no id column while the ids run
1, 2, 3, ..., to `freeze_by_id_column`, which keeps every id, and
`TreeSketch._merge`, which sorts one int64 key, to `merge_by_lexsort`.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from schedsketch import streaming
from schedsketch.core import CAPPED, GIVEN, AlgoParams, buckets_for, ceil_div, derive_params
from schedsketch.errors import CycleSuspicionError, InputContractError, InvariantViolationError
from schedsketch.model import ArcChunk, RunReport
from schedsketch.sketch import DepthTable


class LazySketch:
    """The paper's sketch as a dict from (u, d) to a count, pruned lazily: each prune drops at most the smallest node.

    It shares no code with `TreeSketch`, which the tests hold to it: it
    counts, moves, prunes, restricts and sums its loads with loops of
    its own, and gives its entries sorted by (u, d).
    """

    def __init__(self, counts: dict | None = None):
        self.counts = dict(counts or {})  # (u, d) -> count
        self.total_counted = sum(self.counts.values())
        self.p_min = self.p_max = None
        self.peak_node_count = len(self.counts)

    @property
    def node_count(self) -> int:
        return len(self.counts)

    def note_processing_time(self, p: int) -> None:
        self.p_min = p if self.p_min is None else min(self.p_min, p)
        self.p_max = p if self.p_max is None else max(self.p_max, p)

    def note_peak(self) -> None:
        self.peak_node_count = max(self.peak_node_count, len(self.counts))

    def add(self, d: int, u: int) -> bool:
        """Count one job at (d, u); return True if the node is new."""
        created = (u, d) not in self.counts
        self.counts[u, d] = self.counts.get((u, d), 0) + 1
        self.total_counted += 1
        return created

    def move(self, d: int, u: int, d_new: int) -> bool:
        """Move one count from (d, u) to (d_new, u); return True if the destination node is new."""
        if (u, d) not in self.counts:
            raise InvariantViolationError(f"no sketch node at (d={d}, u={u}) to move from")
        self.counts[u, d] -= 1
        if not self.counts[u, d]:
            del self.counts[u, d]
        self.total_counted -= 1
        return self.add(d_new, u)

    def prune_smallest(self, cutoff_u: int) -> bool:
        if self.counts and min(self.counts)[0] < cutoff_u:
            del self.counts[min(self.counts)]
            return True
        return False

    def restrict(self, u_lo: int, u_hi: int) -> "LazySketch":
        out = LazySketch({key: cnt for key, cnt in self.counts.items() if u_lo <= key[0] <= u_hi})
        out.p_min, out.p_max = self.p_min, self.p_max
        out.peak_node_count = max(self.peak_node_count, out.node_count)
        return out

    def top_bucket(self, count: int) -> int | None:
        held = 0
        for u, d in sorted(self.counts, reverse=True):
            held += self.counts[u, d]
            if held >= count:
                return u
        return None

    def entries(self) -> list[tuple[int, int, int]]:
        """(d, u, count) sorted by (u, d)."""
        return [(d, u, self.counts[u, d]) for u, d in sorted(self.counts)]

    def depth_loads(self, gb, u_lo: int, u_hi: int, top: int, h: int) -> np.ndarray:
        """Loads 1..h: each node in (u, d) order adds its count times its bucket's rounded value."""
        if u_hi < u_lo:
            raise InputContractError(f"empty bucket range [{u_lo}, {u_hi}]")
        loads = [0.0] * h
        for d, u, cnt in self.entries():
            if not u_lo <= u <= u_hi:
                raise InputContractError(f"bucket {u} outside [{u_lo}, {u_hi}]")
            loads[d - 1] += cnt * (float(top) if u == u_hi else gb.base ** (u + 1))
        return np.array(loads)


def merge_by_lexsort(sk, u: np.ndarray, d: np.ndarray, count: np.ndarray) -> np.ndarray:
    """`TreeSketch._merge` by one stable lexsort of the two columns, as the sketch merged before its int64 key.

    Adds count[i] into the node of ``sk`` at the distinct pair (u[i], d[i]), made if none is held,
    drops counts of 0, and returns which pairs a node held.
    """
    nodes = sk.u.size
    us, ds = np.concatenate((sk.u, u)), np.concatenate((sk.d, d))
    order = np.lexsort((ds, us))
    us, ds, counts = us[order], ds[order], np.concatenate((sk.count, count))[order]
    match = np.flatnonzero((us[1:] == us[:-1]) & (ds[1:] == ds[:-1])) + 1  # a pair just after its node
    counts[match - 1] += counts[match]
    keep = counts != 0
    keep[match] = False
    sk.u, sk.d, sk.count = us[keep], ds[keep], counts[keep]
    held = np.zeros(u.size, dtype=bool)
    held[order[match] - nodes] = True
    return held


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
    given, capped = mode in GIVEN, mode in CAPPED
    drv = derive_params(params, mode)
    gb = buckets_for(drv.delta)
    sk = LazySketch()
    table = _Table()
    sources_seen: set[int] = set()
    skipped: set[int] = set()  # capped modes: the jobs skipped as too small, which hold no count
    in_arc_phase = False
    h, c = params.h if given else 1, params.c
    p_cap = math.inf if capped else c
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
            if not in_arc_phase:  # the job section ends
                table.check_ids()
            in_arc_phase = True
            for src, dst in zip(*cols):
                if src == dst:
                    raise CycleSuspicionError(f"self-loop arc ({src} -> {dst}) forms a cycle")
                d_src, _ = table.get(src)
                d_dst, u_dst = table.get(dst)
                if dst in sources_seen:
                    raise CycleSuspicionError(
                        f"arc ({src} -> {dst}) arrived after {dst} was already a source; "
                        "arc stream is not in topological order"
                    )
                sources_seen.add(src)
                if d_src + 1 > d_dst:
                    new_depth = d_src + 1
                    if not capped:
                        sk.move(d_dst, u_dst, new_depth)
                    elif dst not in skipped and (u_dst, d_dst) in sk.counts and sk.move(d_dst, u_dst, new_depth):
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
    if not given and not in_arc_phase:
        table.check_ids()
    if n == 0:
        raise InputContractError("empty job stream")
    if params.n is not None and n != params.n:
        raise InputContractError(f"stream carried {n} jobs but n={params.n} was declared")
    if given and not capped:
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
    tail = ceil_div(top, n) if capped else 0
    if not given:
        held = table.held_depths(height)
    extras = {"delta": drv.delta, "k": drv.k, "p_max": sk.p_max, "input_sketch": final}
    if not given:
        extras.update(p_min=sk.p_min, c_discovered=c_run, h_discovered=height, depth_table=table)
    if capped:
        extras.update({"peak_node_count": sk.peak_node_count} if given else {}, counted=final.total_counted)
    loads = final.depth_loads(gb, u_lo, u_hi, top, height)
    return streaming.finish(mode, params, loads, top, tight, (n, height, c_run), (final.node_count, 0, updates), extras,
                            tail=tail, slack=tail, held=held)


def freeze_by_id_column(id_parts: list, u_parts: list, ended: bool = True) -> tuple:
    """`DepthColumns.freeze` on an id column of every job: its (u, depth, whether it sorted), or its error.

    Raises ``duplicate job id X in stream`` at the earliest row, in
    stream order, whose id an earlier row holds, and then, if the job
    section ``ended``, names the first id of 1..n that no job holds.
    """
    ids = np.concatenate(id_parts) if id_parts else np.empty(0, dtype=np.int64)
    u = np.concatenate(u_parts) if u_parts else ids
    reordered = bool((ids[1:] <= ids[:-1]).any())
    if reordered:
        order = np.argsort(ids, kind="stable")
        ranked = ids[order]
        repeats = order[1:][ranked[1:] == ranked[:-1]]
        if repeats.size:
            k = int(repeats.min())
            raise InputContractError(f"duplicate job id {ids[k]} in stream", row=("J", k))
        ids, u = ranked, u[order]
    n = ids.size
    if ended and n and (ids[0], ids[-1]) != (1, n):
        missing = int(np.flatnonzero(ids != np.arange(1, n + 1))[0]) + 1
        raise InputContractError(f"job ids must be exactly 1..{n}; no job has id {missing}")
    return u, np.ones(n, dtype=np.int64), reordered
