"""Input sketch: per-(depth, bucket) job counters maintained in one pass.

`TreeSketch` keeps the counter multiset as a plain dict from
(bucket u, depth d) to a count, for all four stream modes.  Zero-count
entries are never stored, and every reader (`entries`, `depth_loads`,
`top_bucket`) walks the keys in increasing (u, d) order.

The size-capped modes lazily evict the smallest bucket: each call of
`prune_smallest` drops at most the minimum key.  A min-heap of keys
finds it; the heap is built from the dict at the first prune, so the
uncapped modes never hold one, and it keeps keys deleted since then
until they reach the top, where they are skipped.
"""

from __future__ import annotations

import json
from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, NoReturn

import numpy as np

from .errors import CycleSuspicionError, InputContractError, InvariantViolationError
from .model import ends_at_earlier_source


def pair_counts(u: np.ndarray, d: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """The distinct pairs of two int64 columns ``u >= 0``, ``d >= 0``, with their counts.

    Returns (us, ds, counts), sorted by (u, d), so each depth's pairs
    come in increasing u.
    """
    width = int(d.max()) + 1
    # the key u * width + d is exact in int64 while (max(u) + 1) * width <= 2**63
    if (int(u.max()) + 1) * width <= 1 << 63:
        keys, counts = np.unique(u * width + d, return_counts=True)
        us, ds = np.divmod(keys, width)
    else:
        pairs, counts = np.unique(np.stack((u, d), axis=1), axis=0, return_counts=True)
        us, ds = pairs[:, 0], pairs[:, 1]
    return us.tolist(), ds.tolist(), counts.tolist()


class TreeSketch:
    """Dict-backed sketch with optional lazy eviction of the smallest bucket.

    ``peak_node_count`` is updated by `note_peak`, which the streaming
    loops call once per event after any lazy prune has run; the size
    bound of the capped mode is stated over exactly those instants.
    """

    def __init__(self):
        self._map: dict[tuple[int, int], int] = {}  # (u, d) -> count
        self._heap: list[tuple[int, int]] | None = None  # keys, from the first prune on
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
        if cnt is not None:
            self._map[key] = cnt + n
            return False
        self._map[key] = n
        heap = self._heap
        if heap is not None:
            if len(heap) >= 2 * len(self._map):  # mostly deleted keys: start over
                heap = self._heap = list(self._map)
                heapify(heap)
            else:
                heappush(heap, key)
        return True

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

    def move_if_present(self, d: int, u: int, d_new: int) -> tuple[bool, bool]:
        """`move`, but a missing source is tolerated: returns (moved, created).

        Used by the capped unknown-parameter mode, where a job's count
        may have been skipped or evicted as too small before an arc
        raised its depth.
        """
        if self._map.get((u, d), 0) < 1:
            return False, False
        return True, self.move(d, u, d_new)

    def prune_smallest(self, cutoff_u: int) -> bool:
        """Evict the minimum-key node iff its bucket is below ``cutoff_u``.

        At most one node is removed per call (lazy pruning); returns
        True when a node was evicted.
        """
        heap = self._heap
        if heap is None:
            heap = self._heap = list(self._map)
            heapify(heap)
        while heap and heap[0] not in self._map:
            heappop(heap)
        if heap and heap[0][0] < cutoff_u:
            del self._map[heappop(heap)]
            return True
        return False

    def smallest_bucket(self) -> int | None:
        """Bucket of the minimum key, the node `prune_smallest` would evict; None when empty."""
        return min(self._map)[0] if self._map else None

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

    def depth_loads(self, rp: "RoundedValues", h: int) -> np.ndarray:
        """Sum of count * rounded value per depth 1..h, each summed in increasing u."""
        loads = [0.0] * h
        for u, d in sorted(self._map):
            loads[d - 1] += self._map[(u, d)] * rp.value(u)
        return np.array(loads)


# perfbench/tracer.py still patches the old dense sketch class by name;
# drop this alias with that name at the next change to the benchmark.
GridSketch = TreeSketch


def sketch_finalize_alpha(sk: TreeSketch, n: int, buckets) -> TreeSketch:
    """Restrict a capped sketch to buckets [floor_log(p_max/n^2), floor_log(p_max)]."""
    if sk.p_max is None:
        return sk.restrict(0, -1)
    u_lo = buckets.floor_log(sk.p_max, n * n)
    u_hi = buckets.floor_log(sk.p_max)
    return sk.restrict(u_lo, u_hi)


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
        self.u: np.ndarray | None = None  # bucket of each job, in `ids` order
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

        Appends ``(job position, old depth, new depth)`` to ``raises``,
        when given, for each depth raised, in order.  The checks at one
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
                    raises.append((b, depth[b], d))
                depth[b] = d
        self._source[s[:stop]] = True
        if stop < src.size:
            self.reject(int(src[stop]), int(dst[stop]))

    def _position(self, job_id: int) -> int | None:
        """Position of ``job_id`` (any int) in `ids`; None when no job has it."""
        pos = int(np.searchsorted(self.ids, min(max(job_id, -(1 << 63)), (1 << 63) - 1)))
        return pos if pos < self.ids.size and int(self.ids[pos]) == job_id else None

    def reject(self, a: int, b: int) -> NoReturn:
        """Raise the error of the bad arc ``a -> b``, given the arcs before it.

        Its checks, in order: ``b`` was already a source, ``a`` or ``b``
        is unseen, and a self-loop, which would raise the job past the
        job count or else forms a cycle.
        """
        s, t = self._position(a), self._position(b)
        if t is not None and self._source[t]:
            raise CycleSuspicionError(
                f"arc ({a} -> {b}) arrived after {b} was already a source; arc stream is not in topological order"
            )
        for job_id, pos in ((a, s), (b, t)):
            if pos is None:
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

    def held_depths(self, h: int) -> list[bool]:
        """Flags for depths 0..h: entry d is True iff some job has depth d."""
        return (np.bincount(self.depth, minlength=h + 1) > 0).tolist()

    def depths_array(self, n: int) -> np.ndarray:
        """Depths for contiguous ids 1..n, for handing to the second pass."""
        pos, known = _find(self.ids, np.arange(1, n + 1, dtype=np.int64))
        if not known.all():
            raise InputContractError(f"arc references unseen job id {known.argmin() + 1}")
        return np.array(self.depth, dtype=np.int64)[pos]
