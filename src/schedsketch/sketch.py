"""Input sketch: per-(depth, bucket) job counters maintained in one pass.

`TreeSketch` keeps the counter multiset as a plain dict from
(bucket u, depth d) to a count, for all four stream modes.  Zero-count
entries are never stored, and every reader (`entries`, `depth_loads`,
`top_bucket`) walks the keys in increasing (u, d) order.

The size-capped modes evict eagerly: when their cutoff rises, every
node whose bucket is below it goes at once (`prune_smallest`,
`count_chunk`).  The paper evicts lazily, at most the smallest node
each time a node is created.  Both keep the same nodes at or above the
cutoff, since neither evicts such a node and no kept job falls below
it; the lazy leftovers all lie below the final cutoff, where the finish
drops them.  And both reach the same peak node count: a lazy leftover appears
only when the cutoff rises, when the two sketches hold the same nodes,
and while one remains every new node is paid for by an eviction, so
the lazy count does not grow past a count the eager sketch held.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Iterator, NoReturn

import numpy as np

from .core import GeometricBuckets
from .errors import CycleSuspicionError, InputContractError, InvariantViolationError
from .model import ends_at_earlier_source


def pair_counts(u: np.ndarray, d: np.ndarray, first: bool = False) -> tuple:
    """The distinct pairs of two int64 columns ``u >= 0``, ``d >= 0``, with their counts.

    Returns (us, ds, counts), sorted by (u, d), so each depth's pairs
    come in increasing u; with ``first``, also an array of the row at
    which each pair first appears.
    """
    width = int(d.max()) + 1
    # the key u * width + d is exact in int64 while (max(u) + 1) * width <= 2**63
    if (int(u.max()) + 1) * width <= 1 << 63:
        found = np.unique(u * width + d, return_index=first, return_counts=True)
        us, ds = np.divmod(found[0], width)
    else:
        found = np.unique(np.stack((u, d), axis=1), axis=0, return_index=first, return_counts=True)
        us, ds = found[0][:, 0], found[0][:, 1]
    return (us.tolist(), ds.tolist(), found[-1].tolist()) + found[1:-1]


def bucket_loads(entries: Iterable[tuple], gb: GeometricBuckets, u_lo: int, u_hi: int, top: int, h: int) -> np.ndarray:
    """Per-depth loads 1..h: each (u, d, weight) entry adds weight times its bucket's rounded value.

    The rounded value of bucket u is the top, pinned to the known
    maximum, for ``u == u_hi``, and its upper boundary (1+delta)**(u+1)
    for ``u_lo <= u < u_hi``, so every job's rounded time lies between
    its true time and (1+delta) times it.  Entries add up in the order
    given; a bucket outside [u_lo, u_hi] raises.
    """
    if u_hi < u_lo:
        raise InputContractError(f"empty bucket range [{u_lo}, {u_hi}]")
    top, loads = float(top), [0.0] * h
    for u, d, weight in entries:
        if not u_lo <= u <= u_hi:
            raise InputContractError(f"bucket {u} outside [{u_lo}, {u_hi}]")
        loads[d - 1] += weight * (top if u == u_hi else gb.base ** (u + 1))
    return np.array(loads)


class TreeSketch:
    """Dict-backed sketch with optional eager eviction of the buckets below a cutoff.

    ``peak_node_count`` is updated by `count_chunk` and `move_counts`
    for the events they take, so it is the peak over all events.
    """

    def __init__(self):
        self._map: dict[tuple[int, int], int] = {}  # (u, d) -> count
        self.total_counted = 0
        self.p_min: int | None = None
        self.p_max: int | None = None
        self.peak_node_count = 0

    def note_processing_time(self, p: int) -> None:
        if self.p_min is None or p < self.p_min:
            self.p_min = p
        if self.p_max is None or p > self.p_max:
            self.p_max = p

    @property
    def node_count(self) -> int:
        return len(self._map)

    def note_peak(self) -> None:
        if len(self._map) > self.peak_node_count:
            self.peak_node_count = len(self._map)

    def _bump(self, key: tuple[int, int], n: int = 1) -> bool:
        """Add ``n`` to the count at ``key``; return True if the node is new."""
        cnt = self._map.get(key)
        self._map[key] = n if cnt is None else cnt + n
        return cnt is None

    def add(self, d: int, u: int) -> bool:
        """Count one job at (d, u); return True if the node is new."""
        if d < 1:
            raise InputContractError(f"depth must be >= 1, got {d}")
        self.total_counted += 1
        return self._bump((u, d))

    def add_counts(self, keys: Iterable[tuple[int, int]], counts: Iterable[int]) -> None:
        """Count ``n`` jobs at each (u, d) key: the same sketch as ``n`` calls of `add`."""
        for (u, d), n in zip(keys, counts):
            if d < 1:
                raise InputContractError(f"depth must be >= 1, got {d}")
            self.total_counted += n
            self._bump((u, d), n)

    def count_chunk(self, u: np.ndarray, d: np.ndarray, cutoff: int, cutoff_at: Callable) -> None:
        """Count job i at (d[i], u[i]) for i in order, evicting eagerly.

        When job i comes, every node whose bucket is below the cutoff then
        in force is evicted before the job is counted.  ``cutoff_at(i)``
        gives those cutoffs for an ascending int array of job positions,
        and ``cutoff`` is the last one; cutoffs never fall, and none is
        above the bucket of its job.  ``u`` and ``d`` are int64 with
        ``d >= 1``.

        After the chunk's t-th new node the count is the count before the
        chunk plus t, minus the nodes, old or new, below the cutoff in
        force then: a node created later lies at or above it.  The order
        in which nodes were created, and ``cutoff_at``, are needed only
        when some node falls below a cutoff inside the chunk; otherwise
        the peak is the final count.
        """
        if u.size == 0:
            return
        evicts = cutoff > min(int(u.min()), min(self._map)[0] if self._map else cutoff)
        found = pair_counts(u, d, first=evicts)
        if not evicts:
            self.add_counts(zip(*found[:2]), found[2])
            self.note_peak()
            return
        us, ds, counts, rows = found
        keys, held = list(zip(us, ds)), len(self._map)
        born = np.sort(rows[[key not in self._map for key in keys]])  # the job creating each new node, in order
        self.add_counts(keys, counts)
        gone = np.searchsorted(np.sort([key[0] for key in self._map]), cutoff_at(born))  # nodes below each one's cutoff
        peak = held + int((np.arange(1, born.size + 1) - gone).max(initial=0))
        self.peak_node_count = max(self.peak_node_count, peak)
        self.prune_smallest(cutoff)

    # perfbench/tracer.py still patches this method by name, though no engine route calls it;
    # drop it with that name, and the tests' calls, at the next change to the benchmark.
    def move(self, d: int, u: int, d_new: int) -> bool:
        """Move one unit of count from (d, u) to (d_new, u).

        Returns True if the destination node was created.  The source
        must exist; a missing source means the depth table and the
        sketch disagree about where the job was counted.
        """
        if d_new <= d:
            raise InvariantViolationError(f"move must increase depth ({d} -> {d_new})")
        key = (u, d)
        cnt = self._map.get(key, 0)
        if cnt < 1:
            raise InvariantViolationError(f"no sketch node at (d={d}, u={u}) to move from")
        if cnt == 1:
            del self._map[key]
        else:
            self._map[key] = cnt - 1
        return self._bump((u, d_new))

    def move_counts(self, u: np.ndarray, d: np.ndarray, d_new: np.ndarray) -> None:
        """The walk ``move(d[i], u[i], d_new[i])`` over i in order, as one batch.

        In the walk, each move that creates a node is followed by
        `note_peak`.  A move keeps its bucket, so under eager eviction no
        move needs a prune.  Every source must hold a count when its move
        comes (the moves, simulated in order, never take a key below
        zero); otherwise this raises `InvariantViolationError` and changes
        nothing.  Arrays are int64 with ``d_new > d >= 1`` and ``u >= 0``.
        """
        k = u.size
        if k == 0:
            return
        width = int(d_new.max()) + 1
        values, keyed = None, u
        if (int(u.max()) + 1) * width > 1 << 63:  # keys u * width + d past int64: key on the rank of u instead
            values, keyed = np.unique(u, return_inverse=True)
        keys = np.empty(2 * k, dtype=np.int64)  # move i: -1 at its source (2i), then +1 at its destination
        keys[0::2], keys[1::2] = keyed * width + d, keyed * width + d_new
        order = np.argsort(keys, kind="stable")  # each key's events together, in stream order
        ranked = keys[order]
        steps = np.where(order % 2 == 0, -1, 1)
        first = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
        last = np.append(first[1:], 2 * k) - 1
        us, ds = np.divmod(ranked[first], width)
        touched = list(zip((us if values is None else values[us]).tolist(), ds.tolist()))
        start = np.array([self._map.get(key, 0) for key in touched], dtype=np.int64)
        total = np.cumsum(steps)
        # each key's count after each of its events: its count before the chunk plus its steps so far
        after = total + np.repeat(start - (total[first] - steps[first]), last - first + 1)
        if after.min() < 0:
            i = int(order[after < 0].min()) // 2  # the first move whose source holds no count
            raise InvariantViolationError(f"no sketch node at (d={d[i]}, u={u[i]}) to move from")
        # node count changes, put back in stream order: +1 where a key turns positive, -1 where it empties
        change = np.empty(2 * k, dtype=np.int64)
        change[order] = (after > 0).astype(np.int64) - (after - steps > 0)
        created = change > 0
        if created.any():
            peak = len(self._map) + int((np.cumsum(change)[created]).max())
            self.peak_node_count = max(self.peak_node_count, peak)
        for key, cnt in zip(touched, after[last].tolist()):
            if cnt:
                self._map[key] = cnt
            else:
                self._map.pop(key, None)

    def prune_smallest(self, cutoff_u: int) -> bool:
        """Evict every node whose bucket is below ``cutoff_u``; return True if one was."""
        low = [key for key in self._map if key[0] < cutoff_u]
        for key in low:
            del self._map[key]
        return bool(low)

    def top_bucket(self, count: int) -> int | None:
        """Highest bucket u whose nodes and those above hold >= count jobs; None if none does."""
        held = 0
        for key in sorted(self._map, reverse=True):
            held += self._map[key]
            if held >= count:
                return key[0]
        return None

    def restrict(self, u_lo: int, u_hi: int) -> "TreeSketch":
        """New sketch keeping only entries with u_lo <= u <= u_hi."""
        out = TreeSketch()
        out._map = {key: cnt for key, cnt in self._map.items() if u_lo <= key[0] <= u_hi}
        out.total_counted = sum(out._map.values())
        out.p_min = self.p_min
        out.p_max = self.p_max
        out.peak_node_count = max(self.peak_node_count, len(out._map))
        return out

    def entries(self) -> Iterator[tuple[int, int, int]]:
        """Yield (d, u, count) sorted by (u, d)."""
        for key in sorted(self._map):
            yield key[1], key[0], self._map[key]

    def depth_loads(self, gb: GeometricBuckets, u_lo: int, u_hi: int, top: int, h: int) -> np.ndarray:
        """`bucket_loads` over the nodes in increasing (u, d), so each depth sums in increasing u."""
        return bucket_loads(((u, d, self._map[u, d]) for u, d in sorted(self._map)), gb, u_lo, u_hi, top, h)


# perfbench/tracer.py still patches the old dense sketch class by name;
# drop this alias with that name at the next change to the benchmark.
GridSketch = TreeSketch


def sketch_to_json(sk: TreeSketch) -> str:
    """Serialize a sketch for pass-2 use: sorted entries plus extremes."""
    doc = {
        "entries": [{"d": d, "u": u, "n": cnt} for d, u, cnt in sk.entries()],
        "p_min": sk.p_min,
        "p_max": sk.p_max,
    }
    return json.dumps(doc)


def sketch_from_json(text: str) -> TreeSketch:
    doc = json.loads(text)
    sk = TreeSketch()
    for e in doc["entries"]:
        sk._map[(int(e["u"]), int(e["d"]))] = int(e["n"])
        sk.total_counted += int(e["n"])
    sk.p_min = doc.get("p_min")
    sk.p_max = doc.get("p_max")
    sk.peak_node_count = len(sk._map)
    return sk


# The engine keeps per-job depths in `DepthColumns`.  This dict form stays:
# the tests' per-event reference walks arcs with it, and perfbench/tracer.py
# still patches its methods by name.
class DepthTable:
    """Per-job (current depth, bucket) records, one dict entry per job.

    Depths only ever increase; an arc that would lower one is a
    corrupted stream.
    """

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


def _find(ids: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``x`` in the sorted array ``ids``, and where each was found."""
    if ids.size == 0:
        return np.zeros(x.size, dtype=np.int64), np.zeros(x.size, dtype=bool)
    pos = np.minimum(np.searchsorted(ids, x), ids.size - 1)
    return pos, ids[pos] == x


class DepthColumns:
    """Per-job id, bucket and depth columns for the arc-driven modes.

    Job chunks are appended by `insert_chunk`; the first `raise_chunk`
    sorts the jobs by id, after which an arc's ends are found by one
    ``searchsorted`` per chunk.  Both methods raise the error that
    `DepthTable` and a per-event walk raise at the first bad event of
    the chunk, after applying the events before it.
    """

    def __init__(self):
        self._id_parts: list[np.ndarray] = []
        self._u_parts: list[np.ndarray] = []
        self._sorted: np.ndarray | None = None  # all ids so far, sorted, once they came out of order
        self.ids: np.ndarray | None = None  # sorted job ids, from `freeze` on
        self.u: np.ndarray | None = None  # bucket of each job, in `ids` order; -1 marks a skipped job
        self.depth: list[int] = []  # depth of each job, in `ids` order
        self._source: np.ndarray | None = None  # job has been an arc source

    def insert_chunk(self, ids: np.ndarray, u: np.ndarray) -> None:
        """`DepthTable.insert` for a chunk of ids with their buckets."""
        if ids.size == 0:
            return
        last = self._id_parts[-1][-1] if self._id_parts else 0
        # ids ascending past every earlier id cannot repeat one (the usual case)
        if self._sorted is not None or ids[0] <= last or (ids[1:] <= ids[:-1]).any():
            if self._sorted is None:
                self._sorted = np.concatenate(self._id_parts) if self._id_parts else ids[:0]
            order = np.argsort(ids, kind="stable")
            ranked = ids[order]
            repeat = _find(self._sorted, ids)[1]
            repeat[order[1:][ranked[1:] == ranked[:-1]]] = True  # equal to an earlier id of the chunk
            if repeat.any():
                raise InputContractError(f"duplicate job id {ids[repeat.argmax()]} in stream")
            # two sorted runs, which the stable sort (timsort) merges in linear time
            self._sorted = np.sort(np.concatenate((self._sorted, ranked)), kind="stable")
        self._id_parts.append(ids)
        self._u_parts.append(u)

    def freeze(self) -> None:
        """Sort the jobs by id once all of them have arrived; later calls do nothing."""
        if self.ids is not None:
            return
        ids = np.concatenate(self._id_parts) if self._id_parts else np.empty(0, dtype=np.int64)
        u = np.concatenate(self._u_parts) if self._u_parts else ids
        if self._sorted is not None:
            order = np.argsort(ids)
            ids, u = ids[order], u[order]
        self.ids, self.u = ids, u
        self.depth = [1] * ids.size
        self._source = np.zeros(ids.size, dtype=bool)
        self._id_parts = self._u_parts = []

    def raise_chunk(self, src: np.ndarray, dst: np.ndarray, raises: list | None = None) -> None:
        """Raise depths along a chunk of arcs in stream order, as a per-event walk does.

        Appends the job position, old depth and new depth of each depth
        raised, in order, to ``raises`` when given: three ints a raise.  The checks at one
        arc are those of `reject`.  Arcs that pass them form an acyclic
        graph, so no depth they raise can pass the job count.
        """
        self.freeze()
        if src.size == 0:
            return
        s, s_known = _find(self.ids, src)
        t, t_known = _find(self.ids, dst)
        late = ends_at_earlier_source(src, dst) | (t_known & self._source[t])
        bad = late | ~s_known | ~t_known | (src == dst)
        stop = int(bad.argmax()) if bad.any() else src.size
        depth = self.depth
        for a, b in zip(s[:stop].tolist(), t[:stop].tolist()):
            d = depth[a] + 1
            if d > depth[b]:
                if raises is not None:
                    raises += (b, depth[b], d)
                depth[b] = d
        self._source[s[:stop]] = True
        if stop < src.size:
            self.reject(int(src[stop]), int(dst[stop]))

    def reject(self, a: int, b: int) -> NoReturn:
        """Raise the error of the bad arc ``a -> b``, given the arcs before it.

        Its checks, in order: ``b`` was already a source, ``a`` or ``b``
        is unseen, and a self-loop, which would raise the job past the
        job count or else forms a cycle.
        """
        (s, t), (s_known, t_known) = _find(self.ids, np.array([a, b], dtype=np.int64))
        if t_known and self._source[t]:
            raise CycleSuspicionError(
                f"arc ({a} -> {b}) arrived after {b} was already a source; arc stream is not in topological order"
            )
        for job_id, known in ((a, s_known), (b, t_known)):
            if not known:
                raise InputContractError(f"arc references unseen job id {job_id}")
        new_depth = self.depth[s] + 1
        if new_depth > len(self.depth):
            raise CycleSuspicionError(f"depth {new_depth} exceeds job count {len(self.depth)}")
        raise CycleSuspicionError(f"self-loop arc ({a} -> {b}) forms a cycle")

    def count_into(self, sk: TreeSketch) -> None:
        """Count every frozen job at its final (bucket, depth) in ``sk``."""
        if self.depth:
            us, ds, counts = pair_counts(self.u, np.array(self.depth, dtype=np.int64))
            sk.add_counts(zip(us, ds), counts)

    def check_ids(self) -> None:
        """Raise unless the frozen ids are exactly 1..n (distinct sorted ids are iff they run from 1 to n)."""
        if self.ids.size and (self.ids[0], self.ids[-1]) != (1, self.ids.size):
            missing = np.setdiff1d(np.arange(1, self.ids.size + 1), self.ids)[0]
            raise InputContractError(f"job ids must be exactly 1..{self.ids.size}; no job has id {missing}")

    def depths_array(self) -> np.ndarray:
        """Depths for ids 1..n, which `check_ids` ensures, for handing to the second pass."""
        return np.array(self.depth, dtype=np.int64)
