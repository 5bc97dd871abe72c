"""Domain types: jobs, stream events, instances, and run reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence, Union

import numpy as np

from .core import AlgoParams
from .errors import InputContractError, ParamError


@dataclass(frozen=True)
class Job:
    """One job: positive id, integer processing time, optional depth.

    The depth of a job is the number of jobs on the longest precedence
    path ending at it (sources have depth 1).  It is ``None`` in the
    stream modes that discover depths from the arc stream.
    """

    id: int
    p: int
    depth: int | None = None

    def __post_init__(self):
        if self.id < 1:
            raise ParamError(f"job id must be >= 1, got {self.id}")
        if not isinstance(self.p, (int, np.integer)) or self.p < 1:
            raise ParamError(f"processing time must be an integer >= 1, got {self.p!r}")
        if self.depth is not None and self.depth < 1:
            raise ParamError(f"depth must be >= 1 when set, got {self.depth}")


class Arc(NamedTuple):
    """Precedence arc: ``dst`` cannot start before ``src`` completes."""

    src: int
    dst: int


#: One element of an input stream: all jobs first, then (in the
#: unknown-parameter modes) the arcs in topological order.
StreamEvent = Union[Job, Arc]


class JobChunk(NamedTuple):
    """A run of consecutive job events as columns.

    The file reader and `Instance.chunks` fill the columns with int64
    arrays and set ``depth`` to None when there are no depths.  The
    streaming engine holds no other kind: it packs events, and the rows
    of a hand-built chunk with list columns, into int64 chunks as they
    enter.
    """

    ids: Sequence[int]
    p: Sequence[int]
    depth: Sequence[int | None] | None


class ArcChunk(NamedTuple):
    """A run of consecutive arc events as columns, in stream order."""

    src: Sequence[int]
    dst: Sequence[int]


Chunk = Union[JobChunk, ArcChunk]


CHUNK_ROWS = 1 << 16  # events per chunk from `Instance.chunks`, about the rows of a file block


@dataclass(frozen=True)
class ScheduleSketch:
    """Monotone time instants t_1..t_h delimiting per-depth intervals.

    A sketch promises that every depth-d job fits into
    ``[t_{d-1}, t_d)`` with ``t_0 = 0``; the second pass turns it into a
    concrete schedule without re-running the approximation.
    """

    times: tuple[int, ...]
    source: str = ""

    def __post_init__(self):
        prev = 0
        for t in self.times:
            if t < prev:
                raise ParamError(f"sketch times must be non-decreasing, got {self.times}")
            prev = t

    @property
    def h(self) -> int:
        return len(self.times)

    def interval(self, d: int) -> tuple[int, int]:
        """Half-open interval [t_{d-1}, t_d) assigned to depth d (1-based)."""
        lo = 0 if d == 1 else self.times[d - 2]
        return lo, self.times[d - 1]


@dataclass(frozen=True)
class RunReport:
    """What one algorithm run produced, plus the accounting tests rely on.

    ``update_count`` is the number of stream events consumed (one-pass
    algorithms) or sample draws processed (randomized algorithms), so
    tests can assert per-event work empirically.  ``samples_drawn`` is
    n0 + n' for the randomized algorithms and 0 for streaming.
    ``guarantee_condition_met`` evaluates the machine-count bound under
    which the run's (1+epsilon) guarantee holds.
    """

    algorithm: str
    A: int
    schedule_sketch: ScheduleSketch
    sketch_node_count: int
    samples_drawn: int
    update_count: int
    params: AlgoParams
    guarantee_condition_met: bool
    extras: dict = field(default_factory=dict)


@dataclass
class Instance:
    """A full scheduling instance with materialized arrays.

    Job ids are 1..n and index i of each array describes job i+1.
    ``depth`` is ``None`` only for an instance built without depths:
    `fileio.read_instance` fills it in from a file's job lines or its
    arcs.  ``meta`` carries generator provenance such as the known
    optimal makespan of constructed families.
    """

    p: np.ndarray
    depth: np.ndarray | None
    arcs: np.ndarray
    m: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.int64)
        if self.depth is not None:
            self.depth = np.asarray(self.depth, dtype=np.int64)
            if self.depth.shape != self.p.shape:
                raise ParamError("depth array must match p array")
            if self.depth.size and self.depth.min() < 1:
                raise ParamError("all depths must be >= 1")
        self.arcs = np.asarray(self.arcs, dtype=np.int64).reshape(-1, 2)
        if self.m < 1:
            raise ParamError(f"m must be >= 1, got {self.m}")
        if self.p.size and self.p.min() < 1:
            raise ParamError("all processing times must be >= 1")

    @property
    def n(self) -> int:
        return int(self.p.size)

    @property
    def height(self) -> int:
        if self.depth is None:
            raise InputContractError("instance has no depths")
        return int(self.depth.max()) if self.n else 0

    def jobs(self, with_depth: bool = True) -> Iterator[Job]:
        depths = self.depth if (with_depth and self.depth is not None) else None
        for i in range(self.n):
            d = int(depths[i]) if depths is not None else None
            yield Job(id=i + 1, p=int(self.p[i]), depth=d)

    def events(self, with_depth: bool = True) -> Iterator[StreamEvent]:
        """Jobs (in id order) followed by arcs, as a fresh event stream."""
        yield from self.jobs(with_depth=with_depth)
        for src, dst in self.arcs:
            yield Arc(int(src), int(dst))

    def chunks(self, with_depth: bool = True) -> Iterator[Chunk]:
        """The same stream as `events`, as int64 column chunks of at most `CHUNK_ROWS` events."""
        ids = np.arange(1, self.n + 1, dtype=np.int64)
        depth = self.depth if with_depth else None
        for lo in range(0, self.n, CHUNK_ROWS):
            part = slice(lo, lo + CHUNK_ROWS)
            yield JobChunk(ids[part], self.p[part], None if depth is None else depth[part])
        for lo in range(0, len(self.arcs), CHUNK_ROWS):
            part = slice(lo, lo + CHUNK_ROWS)
            yield ArcChunk(self.arcs[part, 0], self.arcs[part, 1])
