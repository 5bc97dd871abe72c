"""Spans recorded around schedsketch's public functions, kept in memory.

`Tracer.install` replaces public functions and methods of the package
with timing wrappers for the length of a traced run; `uninstall` puts
the originals back.  Two kinds of wrapper:

* a *span* per call for coarse functions (a stream loop, a file read,
  one sampler draw): name, start, end and parent span;
* a *hot* aggregate for functions called once per event (bucket index,
  sketch add/move, depth-table lookups, one parsed line).  These are
  summed per parent span instead of stored one by one, which keeps a
  run at a few hundred span records.

A span's self time is its duration minus its child spans and the hot
calls charged to it.  A hot wrapper also costs its caller time outside
the interval it measures (the extra call and the bookkeeping), so the
self time of a span with many hot calls includes that cost.  Nested
calls to the same hot layer (a depth-table ``raise_depth`` that calls
``get``) are charged once, to the outer call.
"""

from __future__ import annotations

import json
from time import perf_counter_ns

_END = object()


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child_ns", "size", "hot")

    def __init__(self, sid: int, name: str, parent: int | None, start: int):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child_ns = 0
        self.size = 0
        self.hot: dict[str, list[int]] = {}  # name -> [calls, ns, true results]

    def self_ns(self) -> int:
        """Duration minus child spans and the hot calls charged here."""
        return self.end - self.start - self.child_ns


class Tracer:
    def __init__(self):
        self.root = Span(0, "root", None, perf_counter_ns())
        self.spans: list[Span] = []
        self._stack = [self.root]
        self._in_hot = False
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(len(self.spans) + 1, name, self._stack[-1].id, perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter_ns()
        self._stack.pop()
        self._stack[-1].child_ns += span.end - span.start

    def _charge(self, name: str, ns: int, calls: int, hit: bool) -> None:
        top = self._stack[-1]
        top.child_ns += ns
        rec = top.hot.get(name)
        if rec is None:
            rec = top.hot[name] = [0, 0, 0]
        rec[0] += calls
        rec[1] += ns
        rec[2] += hit

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner, key: str, wrapper_for) -> None:
        if isinstance(owner, dict):
            orig = owner[key]
            owner[key] = wrapper_for(orig)
            self._undo.append(lambda: owner.__setitem__(key, orig))
        else:
            orig = owner.__dict__[key]
            setattr(owner, key, wrapper_for(orig))
            self._undo.append(lambda: setattr(owner, key, orig))

    def span(self, owner, key: str, name: str, size=None) -> None:
        """One span per call; ``size(args)`` records how much work it got."""
        tr = self

        def wrapper_for(orig):
            def wrapper(*args, **kwargs):
                span = tr.open(name)
                try:
                    return orig(*args, **kwargs)
                finally:
                    tr.close(span)
                    if size is not None:
                        span.size = size(args)

            return wrapper

        self._patch(owner, key, wrapper_for)

    def hot(self, owner, key: str, name: str) -> None:
        """Aggregate count and time per parent span; counts ``True`` results."""
        tr = self

        def wrapper_for(orig):
            def wrapper(*args, **kwargs):
                if tr._in_hot:
                    return orig(*args, **kwargs)
                tr._in_hot = True
                t0 = perf_counter_ns()
                try:
                    out = orig(*args, **kwargs)
                finally:
                    dt = perf_counter_ns() - t0
                    tr._in_hot = False
                tr._charge(name, dt, 1, out is True)
                return out

            return wrapper

        self._patch(owner, key, wrapper_for)

    def hot_generator(self, owner, key: str, name: str) -> None:
        """Like `hot`, for a generator: each item produced is one call."""
        tr = self

        def wrapper_for(orig):
            def wrapper(*args, **kwargs):
                it = orig(*args, **kwargs)
                while True:
                    t0 = perf_counter_ns()
                    item = next(it, _END)
                    tr._charge(name, perf_counter_ns() - t0, item is not _END, False)
                    if item is _END:
                        return
                    yield item

            return wrapper

        self._patch(owner, key, wrapper_for)

    def install(self) -> None:
        """Wrap the package's layers; call `uninstall` to restore them."""
        from schedsketch import cli, core, fileio, sampling, schedule, sketch, streaming

        self.hot_generator(fileio, "iter_stream", "fileio.iter_stream")
        self.span(fileio, "read_instance", "fileio.read_instance")
        self.span(fileio, "write_schedule_csv", "fileio.write_schedule_csv")

        self.hot(core.GeometricBuckets, "index", "core.index")
        self.hot(core.GeometricBuckets, "floor_log", "core.floor_log")
        self.span(core.GeometricBuckets, "index_array", "core.index_array", size=lambda a: a[1].size)
        self.span(streaming, "derive_params", "core.derive_params")
        self.span(sampling, "derive_params", "core.derive_params")

        for cls in (sketch.GridSketch, sketch.TreeSketch):
            self.hot(cls, "add", "sketch.add")
            self.span(cls, "depth_loads", "sketch.depth_loads")
        self.hot(sketch.TreeSketch, "move", "sketch.move")
        self.hot(sketch.TreeSketch, "prune_smallest", "sketch.prune_smallest")
        for method in ("insert", "get", "raise_depth"):
            self.hot(sketch.DepthTable, method, "sketch.depth_table")

        for mode in list(streaming.STREAMING_ALGORITHMS):
            self.span(streaming.STREAMING_ALGORITHMS, mode, f"streaming.{mode}")
        for mode in list(sampling.SAMPLING_ALGORITHMS):
            self.span(sampling.SAMPLING_ALGORITHMS, mode, f"sampling.{mode}")
        self.span(sampling, "estimate_counts", "sampling.estimate_counts",
                  size=lambda a: int(a[1] >= a[0].n))  # 1 when the draw became a full scan
        self.span(sampling, "estimate_wmax", "sampling.estimate_wmax")
        for cls in (sampling.ArrayAccess, sampling.ChainAccess, sampling.TwoValueAccess):
            self.span(cls, "fetch", "sampling.fetch", size=lambda a: a[1].size)

        self.span(schedule, "sketch_to_schedule", "schedule.sketch_to_schedule")
        self.span(cli, "validate_schedule", "schedule.validate_schedule")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -----------------------------------------------------------

    def summary(self) -> tuple[dict, dict]:
        """(spans, hot) totals by name.

        spans: name -> {"calls", "ns", "self_ns", "size"};
        hot: name -> {"calls", "ns", "hits"}.
        """
        spans: dict[str, dict] = {}
        hot: dict[str, dict] = {}
        for span in [self.root] + self.spans:
            if span is not self.root:
                rec = spans.setdefault(span.name, {"calls": 0, "ns": 0, "self_ns": 0, "size": 0})
                rec["calls"] += 1
                rec["ns"] += span.end - span.start
                rec["self_ns"] += span.self_ns()
                rec["size"] += span.size
            for name, (calls, ns, hits) in span.hot.items():
                h = hot.setdefault(name, {"calls": 0, "ns": 0, "hits": 0})
                h["calls"] += calls
                h["ns"] += ns
                h["hits"] += hits
        return spans, hot

    def dump(self, path: str, header: dict) -> None:
        """Write every span, with its hot aggregates, as one JSON document."""
        doc = {
            **header,
            "spans": [
                {
                    "id": s.id,
                    "name": s.name,
                    "parent": s.parent,
                    "start_ns": s.start - self.root.start,
                    "end_ns": s.end - self.root.start,
                    "self_ns": s.self_ns(),
                    "size": s.size,
                    "hot": {k: {"calls": v[0], "ns": v[1], "hits": v[2]} for k, v in s.hot.items()},
                }
                for s in self.spans
            ],
            "root_hot": {k: {"calls": v[0], "ns": v[1], "hits": v[2]} for k, v in self.root.hot.items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
