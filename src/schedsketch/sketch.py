"""Input sketch: per-(depth, bucket) job counters maintained in one pass.

`TreeSketch` keeps the nodes as int64 columns ``u`` (bucket), ``d``
(depth) and ``count``, sorted by (u, d) and never holding a count of 0,
for all four stream modes.  Every batch of distinct pairs merges in
through one stable sort of an int64 (u, d) key over the nodes and the
pairs together, which
adds each pair into its node or makes one for it; every reader
(`entries`, `depth_loads`, `top_bucket`) takes the columns as they stand.

The size-capped modes evict eagerly: when their cutoff rises, the nodes
below it, a prefix of the columns, go at once (`prune_smallest`).  The
paper evicts lazily, at most the smallest node per new node.  Both keep
the same nodes at or above the cutoff, and the lazy leftovers all lie
below the final cutoff, where the finish drops them.  Both reach the
same peak node count: a leftover appears only at a rise of the cutoff,
when the two hold the same nodes, and while one remains each new node
is paid for by an eviction.

`DepthColumns` holds the per-job state of the arc-driven modes and of
`fileio.read_instance`, and is the one check of ids 1..n, arc ends and
arc order.  It keeps no id column while the ids run 1, 2, 3, ..., and
int32 bucket, depth and first-source columns while the counts fit: 12
bytes a job while arcs arrive, 8 once the stream ends.
"""

from __future__ import annotations

import json
from typing import Callable, Iterator

import numpy as np

from .core import GeometricBuckets
from .errors import CycleSuspicionError, InputContractError, InvariantViolationError

def pair_counts(u: np.ndarray, d: np.ndarray, first: bool = False) -> tuple:
    """The distinct pairs of two integer columns ``u`` and ``d >= 0``, with their counts.

    Returns int64 arrays (us, ds, counts), sorted by (u, d), so each
    depth's pairs come in increasing u; with ``first``, also an array
    of the row at which each pair first appears.  The key is built in
    int64 whatever the columns' dtype.
    """
    width, lo, hi = int(d.max()) + 1, int(u.min()), int(u.max())
    span = (hi - lo + 1) * width  # the key (u - lo) * width + d runs from 0 to below span
    if span > 1 << 63:  # the key would pass int64: the pairs themselves, as rows
        found = np.unique(np.stack((u, d), axis=1), axis=0, return_index=first, return_counts=True)
        return (found[0][:, 0], found[0][:, 1], found[-1]) + found[1:-1]
    key = u.astype(np.int64)  # built in place: one temporary of the columns' length
    key -= lo
    key *= width
    key += d
    if not first and span <= u.size:  # no more keys than rows: count them in place
        tally = np.bincount(key)
        del key
        keys = np.flatnonzero(tally)
        us, ds = np.divmod(keys, width)
        return us + lo, ds, tally[keys]
    found = np.unique(key, return_index=first, return_counts=True)
    del key
    us, ds = np.divmod(found[0], width)
    us += lo
    return (us, ds, found[-1]) + found[1:-1]


def bucket_loads(u: np.ndarray, d: np.ndarray, weight: np.ndarray, gb: GeometricBuckets, u_lo: int, u_hi: int,
                 top: int, h: int) -> np.ndarray:
    """Per-depth loads 1..h: each row adds ``weight`` times the rounded value of its bucket ``u`` to depth ``d``.

    The rounded value of bucket u is the top, pinned to the known maximum, for ``u == u_hi``, and its
    upper boundary (1+delta)**(u+1) for ``u_lo <= u < u_hi``, so every job's rounded time lies between its
    true time and (1+delta) times it.  Rows add up in the order given, each value a Python float power, as
    a loop over Python floats adds them; a bucket outside [u_lo, u_hi] raises.  Each run of rows with equal
    ``u`` pays one power, so rows in non-decreasing ``u``, as both callers give them, pay one a bucket.
    """
    if u_hi < u_lo:
        raise InputContractError(f"empty bucket range [{u_lo}, {u_hi}]")
    if u.size == 0:
        return np.zeros(h)
    outside = (u < u_lo) | (u > u_hi)
    if outside.any():
        raise InputContractError(f"bucket {u[outside.argmax()]} outside [{u_lo}, {u_hi}]")
    run = np.empty(u.size, dtype=bool)  # the rows that start a run of equal u
    run[0] = True
    np.not_equal(u[1:], u[:-1], out=run[1:])
    at = run.cumsum()
    at -= 1  # each row's run
    # numpy's pow is not bit-equal to Python's: one ** a run
    value = np.array([float(top) if b == u_hi else gb.base ** (b + 1) for b in u[run].tolist()])[at]
    value *= weight
    return np.bincount(d - 1, weights=value, minlength=h)  # bincount adds each bin's rows in order


class TreeSketch:
    """Sketch of (bucket, depth) job counts as int64 columns ``u``, ``d``, ``count`` sorted by (u, d).

    Every update goes through `_merge`; eager eviction drops the buckets below a cutoff.  `count_chunk`
    and `move` update ``peak_node_count`` for each event they take, so it is the peak over all events.
    """

    def __init__(self):
        self.u, self.d, self.count = (np.zeros(0, dtype=np.int64) for _ in range(3))
        self.total_counted = self.peak_node_count = 0
        self.p_min: int | None = None
        self.p_max: int | None = None

    def note_processing_time(self, p: int) -> None:
        self.p_min = p if self.p_min is None else min(self.p_min, p)
        self.p_max = p if self.p_max is None else max(self.p_max, p)

    @property
    def node_count(self) -> int:
        return self.u.size

    def note_peak(self) -> None:
        self.peak_node_count = max(self.peak_node_count, self.u.size)

    def _merge(self, u: np.ndarray, d: np.ndarray, count: np.ndarray) -> np.ndarray:
        """Add count[i] into the node at the distinct pair (u[i], d[i]), made if none is held; drop counts of 0.

        One stable sort of the key (u - lo) * width + d orders the nodes with the pairs after them,
        so a held node sorts just before its pair; a lexsort of the two columns stands in where that
        key would pass int64, as in `pair_counts`.  Returns which pairs a node held.
        """
        nodes = self.u.size
        lo, hi, width = int(u.min()), int(u.max()), int(d.max()) + 1
        if nodes:
            lo, hi, width = min(lo, int(self.u[0])), max(hi, int(self.u[-1])), max(width, int(self.d.max()) + 1)
        wide = (hi - lo + 1) * width > 1 << 63
        if wide:
            us, ds = np.concatenate((self.u, u)), np.concatenate((self.d, d))
            order = np.lexsort((ds, us))
            us, ds = us[order], ds[order]
            same = (us[1:] == us[:-1]) & (ds[1:] == ds[:-1])
        else:
            key = np.concatenate((self.u, u))
            key -= lo
            key *= width
            key[:nodes] += self.d
            key[nodes:] += d
            order = np.argsort(key, kind="stable")
            key = key[order]
            same = key[1:] == key[:-1]
        match = np.flatnonzero(same) + 1  # a pair just after its node
        del same
        counts = np.concatenate((self.count, count))[order]
        held = np.zeros(u.size, dtype=bool)
        held[order[match] - nodes] = True
        del order
        counts[match - 1] += counts[match]
        keep = counts != 0
        keep[match] = False
        self.count = counts[keep]
        del counts
        if wide:
            self.u, self.d = us[keep], ds[keep]
        else:
            key = key[keep]
            self.d = np.empty_like(key)
            np.divmod(key, width, out=(key, self.d))
            key += lo
            self.u = key
        return held

    def add(self, d: int, u: int) -> bool:
        """Count one job at (d, u); return True if the node is new."""
        if d < 1:
            raise InputContractError(f"depth must be >= 1, got {d}")
        nodes = self.u.size
        self.count_chunk(np.array([u], dtype=np.int64), np.array([d], dtype=np.int64))
        return self.u.size > nodes

    def count_chunk(self, u: np.ndarray, d: np.ndarray, cutoff: int | None = None,
                    cutoff_at: Callable | None = None) -> None:
        """Count job i at (d[i], u[i]) for i in order, evicting eagerly (not at all without a ``cutoff``).

        When job i comes, every node whose bucket is below the cutoff then in force is evicted
        before the job is counted.  ``cutoff_at(i)`` gives those cutoffs for an ascending int
        array of job positions, and ``cutoff`` is the last one; cutoffs never fall, and none is
        above the bucket of its job.  ``u`` and ``d`` are int64 with ``d >= 1``.

        After the chunk's t-th new node the count is the count before the chunk plus t, minus the
        nodes, old or new, below the cutoff in force then: a node created later lies at or above
        it.  The order in which nodes were created, and ``cutoff_at``, are needed only when some
        node falls below a cutoff inside the chunk; otherwise the peak is the final count.
        """
        if u.size == 0:
            return
        evicts = cutoff is not None and cutoff > min(int(u.min()), int(self.u[0]) if self.u.size else cutoff)
        nodes = self.u.size
        us, ds, counts, *rows = pair_counts(u, d, first=evicts)
        held = self._merge(us, ds, counts)
        self.total_counted += u.size
        if not evicts:
            self.note_peak()
            return
        born = np.sort(rows[0][~held])  # the job creating each new node, in order
        gone = np.searchsorted(self.u, cutoff_at(born))  # nodes below each one's cutoff
        peak = nodes + int((np.arange(1, born.size + 1) - gone).max(initial=0))
        self.peak_node_count = max(self.peak_node_count, peak)
        self.prune_smallest(cutoff)

    # perfbench/tracer.py still patches this method by name, though no engine route calls it;
    # drop it with that name, and the tests' calls, at the next change to the benchmark.
    def move(self, d: int, u: int, d_new: int) -> bool:
        """Move one unit of count from (d, u), which must hold one, to (d_new, u); True if that node is new."""
        if d_new <= d:
            raise InvariantViolationError(f"move must increase depth ({d} -> {d_new})")
        if not ((self.u == u) & (self.d == d)).any():
            raise InvariantViolationError(f"no sketch node at (d={d}, u={u}) to move from")
        new = not self._merge(np.array([u, u], dtype=np.int64), np.array([d, d_new], dtype=np.int64),
                              np.array([-1, 1], dtype=np.int64))[1]
        self.note_peak()
        return new

    def prune_smallest(self, cutoff_u: int) -> bool:
        """Evict every node whose bucket is below ``cutoff_u``; return True if one was."""
        low = int(np.searchsorted(self.u, cutoff_u))
        self.u, self.d, self.count = self.u[low:], self.d[low:], self.count[low:]
        return low > 0

    def top_bucket(self, count: int) -> int | None:
        """Highest bucket u whose nodes and those above hold >= count jobs; None if none does."""
        held = np.cumsum(self.count[::-1])  # the jobs in each node and the nodes after it, from the top down
        i = int(np.searchsorted(held, count))
        return int(self.u[-1 - i]) if i < held.size else None

    def restrict(self, u_lo: int, u_hi: int) -> "TreeSketch":
        """New sketch keeping only entries with u_lo <= u <= u_hi."""
        lo, hi = np.searchsorted(self.u, u_lo), np.searchsorted(self.u, u_hi, side="right")
        out = TreeSketch()
        out.u, out.d, out.count = self.u[lo:hi].copy(), self.d[lo:hi].copy(), self.count[lo:hi].copy()
        out.total_counted = int(out.count.sum())
        out.p_min, out.p_max = self.p_min, self.p_max
        out.peak_node_count = max(self.peak_node_count, out.node_count)
        return out

    def entries(self) -> Iterator[tuple[int, int, int]]:
        """The nodes as (d, u, count), sorted by (u, d)."""
        return zip(self.d.tolist(), self.u.tolist(), self.count.tolist())

    def depth_loads(self, gb: GeometricBuckets, u_lo: int, u_hi: int, top: int, h: int) -> np.ndarray:
        """`bucket_loads` over the nodes in increasing (u, d), so each depth sums in increasing u."""
        return bucket_loads(self.u, self.d, self.count, gb, u_lo, u_hi, top, h)


# perfbench/tracer.py still patches the old dense sketch class by name;
# drop this alias with that name at the next change to the benchmark.
GridSketch = TreeSketch


def sketch_to_json(sk: TreeSketch) -> str:
    """Serialize a sketch for pass-2 use: sorted entries plus extremes."""
    entries = [{"d": d, "u": u, "n": cnt} for d, u, cnt in sk.entries()]
    return json.dumps({"entries": entries, "p_min": sk.p_min, "p_max": sk.p_max})


def sketch_from_json(text: str) -> TreeSketch:
    """The sketch that `sketch_to_json` wrote; entries in another order are sorted by (u, d)."""
    doc = json.loads(text)
    sk = TreeSketch()
    cols = np.array([[int(e[key]) for e in doc["entries"]] for key in "udn"], dtype=np.int64).reshape(3, -1)
    sk.u, sk.d, sk.count = cols.take(np.lexsort(cols[1::-1]), axis=1)
    sk.total_counted = int(sk.count.sum())
    sk.p_min, sk.p_max = doc.get("p_min"), doc.get("p_max")
    sk.peak_node_count = sk.node_count
    return sk


# The engine keeps per-job depths in `DepthColumns`.  This dict form stays:
# the tests' per-event reference walks arcs with it, and perfbench/tracer.py
# still patches its methods by name.
class DepthTable:
    """Per-job (current depth, bucket) records, one dict entry per job; a depth never falls."""

    def __init__(self):
        self._rec: dict[int, tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self._rec)

    def insert(self, job_id: int, u: int) -> None:
        if job_id in self._rec:
            raise InputContractError(f"duplicate job id {job_id} in stream")
        self._rec[job_id] = (1, u)

    def get(self, job_id: int) -> tuple[int, int]:
        try:
            return self._rec[job_id]
        except KeyError:
            raise InputContractError(f"arc references unseen job id {job_id}") from None

    def raise_depth(self, job_id: int, new_depth: int) -> None:
        d, u = self.get(job_id)
        if new_depth < d:
            raise InvariantViolationError(f"depth of job {job_id} would decrease ({d} -> {new_depth})")
        self._rec[job_id] = (new_depth, u)


# `raise_in_rounds`'s cost model, from a 2-core x86_64 VM (Python 3.11, numpy 2.4): a round takes ~2.5 us
# plus ~3.5 ns an arc; `DepthColumns._settle`'s per-arc walk takes ~65 ns an arc
LOOP_NS_PER_ARC, ROUND_NS, ROUND_NS_PER_ARC = 65, 2500, 3.5
# The first-source position of a job that no arc has left yet: int32's largest value while every arc
# position lies below it, after that `NO_SOURCE` in an int64 column
FIRST_BOUND, NO_SOURCE = 2**31 - 1, 2**63 - 1


def raise_in_rounds(best: np.ndarray, s: np.ndarray, t: np.ndarray, add, loop_ns_per_arc: float, most=2**62) -> bool:
    """Raise each ``best[t[i]]`` to ``best[s[i]] + add`` (a scalar, or ``add[i]``) in rounds of `np.maximum.at`.

    At most ``most`` rounds run, while they cost less than a per-arc loop
    of ``loop_ns_per_arc``.  True at the fixpoint, which on a DAG the
    longest path's arcs plus one rounds reach; else every value lies
    between its old and final one, and that loop can finish from there.
    """
    for _ in range(min(most, int(loop_ns_per_arc * s.size / (ROUND_NS + ROUND_NS_PER_ARC * s.size)))):
        candidate = best[s] + add
        if not (candidate > best[t]).any():
            return True
        np.maximum.at(best, t, candidate)
    return False


class DepthColumns:
    """Per-job bucket, depth and first-source columns, and the one check of ids 1..n, arc ends and arc order.

    The arc-driven modes append job chunks with their buckets, and
    `fileio.read_instance` with their rows in the file, by
    `insert_chunk`.  While the ids run 1, 2, 3, ... no id column is
    kept, only the length of the run; the first chunk that breaks it
    starts one.  `freeze` checks the ids once the job section ends,
    at the first arc chunk or the end of the stream, so a job's
    position in the columns is its id - 1.  `raise_chunk` raises the
    error that a per-event walk raises at the first bad arc of the
    chunk, after applying the arcs before it, and `end` drops the
    first-source column, which only arcs read.  Errors come in stream
    order, and each error of one row carries the row's stream position
    (`InputContractError.row`).

    The columns are int32 while their values fit: buckets (rows) chunk
    by chunk, depths while n < 2**31, and first sources until an arc
    position would reach `FIRST_BOUND`, when that column is widened
    once to int64.
    """

    def __init__(self):
        self._run = 0  # ids 1.._run came in order, and no id part is kept
        self._id_parts: list[np.ndarray] = []
        self._u_parts: list[np.ndarray] = []
        self.u: np.ndarray | None = None  # bucket of each job, from `freeze` on; -1 marks a skipped job
        self.depth: np.ndarray | None = None  # depth of each job
        self.first: np.ndarray | None = None  # stream position of each job's first arc as a source
        self.reordered = False  # whether `freeze` sorted the jobs by id
        self.arcs = 0  # arcs taken

    def insert_chunk(self, ids: np.ndarray, u: np.ndarray) -> None:
        """Append a chunk of job ids with their buckets; `freeze` checks the ids."""
        k, run = ids.size, self._run
        if not self._id_parts and (k == 0 or (ids[0] == run + 1 and ids[-1] == run + k and (ids[1:] > ids[:-1]).all())):
            self._run += k  # strictly ascending from run + 1 to run + k: exactly run + 1..run + k
        else:
            self._id_parts = self._id_parts or [np.arange(1, run + 1)]
            self._id_parts.append(ids)
        fits = k == 0 or (int(u.min()) >= -(2**31) and int(u.max()) < 2**31)
        self._u_parts.append(u.astype(np.int32) if fits else u)

    def freeze(self, ended: bool = True) -> None:
        """Order the jobs by id once the job section has ended; later calls do nothing.

        Raises ``duplicate job id X in stream`` for the earliest row, in
        stream order, whose id an earlier row holds, and then, unless
        the section broke off at an error (not ``ended``), names the
        first id of 1..n that no job holds.  Ids that ran 1, 2, 3, ...
        need no check; the others are sorted only when they are not
        strictly ascending, as a repeat is not.
        """
        if self.u is not None:
            return
        self.u = np.concatenate(self._u_parts) if self._u_parts else np.empty(0, dtype=np.int32)
        ids = np.concatenate(self._id_parts) if self._id_parts else None
        self._id_parts = self._u_parts = []  # released before the depth column is built
        n = self.u.size
        if ids is not None and (ids[1:] <= ids[:-1]).any():
            order = np.argsort(ids, kind="stable")
            ranked = ids[order]
            repeats = order[1:][ranked[1:] == ranked[:-1]]  # each row after the first of its id
            if repeats.size:
                k = int(repeats.min())
                raise InputContractError(f"duplicate job id {ids[k]} in stream", row=("J", k))
            ids, self.u, self.reordered = ranked, self.u[order], True
        if ids is not None and ended and n and (ids[0], ids[-1]) != (1, n):  # distinct sorted ids are 1..n iff so
            missing = int(np.flatnonzero(ids != np.arange(1, n + 1))[0]) + 1
            raise InputContractError(f"job ids must be exactly 1..{n}; no job has id {missing}")
        del ids
        self.depth = np.ones(n, dtype=np.int32 if n < 2**31 else np.int64)
        self.first = np.full(n, FIRST_BOUND, dtype=np.int32)

    def end(self) -> None:
        """The stream has ended: `freeze`, and drop the first-source column, which no later arc reads."""
        self.freeze()
        self.first = None

    def raise_chunk(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Raise depths along a chunk of arcs in stream order, as a per-event walk does.

        The checks at each arc ``a -> b``, in order: a self-loop, an
        end outside 1..n (unseen), and ``b`` already a source.  Arcs
        that pass them form an acyclic graph, so no depth they raise
        can pass the job count.
        """
        self.freeze()
        if src.size == 0:
            return
        start, n, k = self.arcs, self.depth.size, src.size
        if start + k > FIRST_BOUND and self.first.dtype == np.int32:  # a position would reach the int32 mark
            unset = self.first == FIRST_BOUND
            self.first = self.first.astype(np.int64)
            self.first[unset] = NO_SOURCE
        self.arcs += k
        s, t = src - 1, dst - 1  # job positions
        stop = k  # the first self-loop or end outside 1..n
        if min(s.min(), t.min()) < 0 or max(s.max(), t.max()) >= n or (src == dst).any():
            stop = int(((src == dst) | (np.minimum(s, t) < 0) | (np.maximum(s, t) >= n)).argmax())
        at = np.arange(start, start + stop, dtype=self.first.dtype)
        np.minimum.at(self.first, s[:stop], at)
        late = at > self.first[t[:stop]]  # the end was the source of an earlier arc
        bad = int(late.argmax()) if late.any() else stop
        self._settle(s[:bad], t[:bad])
        if bad < k:
            a, b, row = int(src[bad]), int(dst[bad]), ("A", start + bad)
            if bad < stop:
                order = "arc stream is not in topological order"
                raise CycleSuspicionError(f"arc ({a} -> {b}) arrived after {b} was already a source; {order}", row)
            if a == b:
                raise CycleSuspicionError(f"self-loop arc ({a} -> {b}) forms a cycle", row)
            raise InputContractError(f"arc references unseen job id {a if not 0 < a <= n else b}", row)

    def _settle(self, s: np.ndarray, t: np.ndarray) -> None:
        """Raise each ``depth[t[i]]`` to ``depth[s[i]] + 1`` along valid arcs, to the per-arc walk's final depths.

        No arc ends at the source of an earlier one, so a job's depth is final before its first
        out-arc, and the walk's depths are the fixpoint of `raise_in_rounds` over all the arcs, which
        the chunk's longest path, at most h arcs, bounds.  Past the rounds' cost the walk finishes.
        """
        depth = self.depth
        if raise_in_rounds(depth, s, t, 1, LOOP_NS_PER_ARC):
            return
        view = memoryview(depth)  # Python ints, without a copy
        for a, b in zip(s.tolist(), t.tolist()):
            if view[a] >= view[b]:
                view[b] = view[a] + 1

    def depths_array(self) -> np.ndarray:
        """Depths for ids 1..n, which `freeze` ensures, as int64, for handing to the second pass."""
        return self.depth.astype(np.int64)

