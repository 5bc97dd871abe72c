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
from typing import Iterable, Iterator

import numpy as np

from .errors import InputContractError, InvariantViolationError


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


class DepthTable:
    """Per-job (current depth, bucket) records for the arc-driven modes.

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

    def held_depths(self, h: int) -> list[bool]:
        """Flags for depths 0..h: entry d is True iff some job has depth d."""
        held = [False] * (h + 1)
        for d, _ in self._rec.values():
            held[d] = True
        return held

    def depths_array(self, n: int) -> np.ndarray:
        """Depths for contiguous ids 1..n, for handing to the second pass."""
        out = np.empty(n, dtype=np.int64)
        for j in range(1, n + 1):
            out[j - 1] = self.get(j)[0]
        return out
