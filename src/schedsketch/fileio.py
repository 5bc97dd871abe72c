"""Instance file format, result files, and generator specs.

Instance files are line oriented so the streaming algorithms can read
them in one pass:

    # sched-stream v1
    J <id> <p> [<depth>]     one line per job, ids contiguous from 1
    A <src> <dst>            arcs after all jobs, topologically ordered

Blank lines and ``#`` comments are ignored.  Either every job line
carries a depth or none does.  Every field is held as an int64.
"Topologically ordered" concretely means: once an id has appeared as
an arc source, it may not appear as a destination again — exactly the
property the one-pass depth updates need.  An arc from a job to itself
is a cycle, rejected at its line.

`iter_chunks` reads a file in blocks of about 1 MiB and yields its
events as int64 column chunks (`JobChunk`, `ArcChunk`).  A block in the
canonical form `write_instance` emits is checked by one regular
expression and parsed in bulk; every other block goes through the line
parser, which is the reference for what the format accepts and names
the ``file:line`` of the first violation.  `iter_stream` is a per-event
view of the same chunks, and `read_instance` concatenates them.

A generator spec like ``chain:m=200,q=5,h=3,seed=1`` can stand in for
a file name anywhere an instance is read; the sampling commands can
also serve the chain and constant alpha-mixed families implicitly, so
10^7-job instances never materialize.
"""

from __future__ import annotations

import inspect
import json
import os
import re
import sys
from dataclasses import asdict
from itertools import repeat
from typing import Iterator

import numpy as np

from .core import ceil_div
from .errors import CycleSuspicionError, InputContractError, InvariantViolationError, ParamError
from .model import (
    Arc,
    ArcChunk,
    Chunk,
    Instance,
    Job,
    JobChunk,
    RunReport,
    ScheduleSketch,
    StreamEvent,
    ends_at_earlier_source,
)
from .generators import FAMILIES, generate
from .sampling import ChainAccess, SampleAccess, TwoValueAccess
from .schedule import ConcreteSchedule, Violation

HEADER = "# sched-stream v1"
P_LIMIT = 2**63 - 1  # every field is held as int64
BLOCK_CHARS = 1 << 20  # `iter_chunks` reads the file in blocks of about this many characters


def _canonical_patterns(possessive: bool) -> tuple[re.Pattern, re.Pattern, re.Pattern]:
    """The canonical block, comment lines at a block's top, and comment lines below it.

    The canonical form, parsed in bulk: numbers of 1 to 18 ASCII digits
    with no sign and no leading zero (so below 2**63, and read the same
    by int()), single spaces, "\\n" line ends, job lines before arc
    lines.  A number is always followed by a space or "\\n", so a
    possessive repeat gives up no match that a plain one would find; it
    only skips the backtracking state, which makes the canonical match
    two to four times faster.  Python has possessive repeats from 3.11.

    Once the comment and blank lines at the top are cut, every other
    one follows a "\\n": the third pattern matches that "\\n" with the
    line's text, so removing the matches removes the lines, with no
    line-start anchor to try at every line.
    """
    q = "+" if possessive else ""
    num = f"[1-9][0-9]{{0,17}}{q}"
    return (
        re.compile(rf"(?P<jobs>(?:J {num} {num}(?: {num})?{q}\n)*{q})(?:A {num} {num}\n)*{q}"),
        re.compile(rf"(?:(?:#[^\n]*{q})?\n)*{q}"),
        re.compile(rf"\n(?:#[^\n]*{q})?(?=\n)"),
    )


_CANONICAL, _LEADING, _COMMENTS = _canonical_patterns(sys.version_info >= (3, 11))


def write_instance(inst: Instance, path: str, with_depths: bool = True) -> None:
    """Write the line format; also drops a JSON metadata sidecar."""
    depths = inst.depth if with_depths else None
    with open(path, "w") as fh:
        fh.write(HEADER + "\n")
        for i in range(inst.n):
            if depths is not None:
                fh.write(f"J {i + 1} {int(inst.p[i])} {int(depths[i])}\n")
            else:
                fh.write(f"J {i + 1} {int(inst.p[i])}\n")
        for src, dst in inst.arcs:
            fh.write(f"A {int(src)} {int(dst)}\n")
    if inst.meta:
        with open(path + ".meta.json", "w") as fh:
            json.dump({**inst.meta, "m": inst.m, "n": inst.n}, fh, indent=2, sort_keys=True)
            fh.write("\n")


class _Reader:
    """The stream contract's state, carried from one block of a file to the next."""

    def __init__(self, path: str):
        self.path = path
        self.lineno = 0  # lines before the current block
        self.jobs_done = False  # an arc line has been read
        self.has_depth: bool | None = None  # the depth convention, once a job line fixed it
        self.sources: set[int] = set()  # arc sources so far; no later arc may end at one

    def bulk(self, block: str) -> list[Chunk] | None:
        """A block's chunks when it is in the canonical form, else None.

        The state moves past the block only when every check passes;
        on None the caller replays the block line by line instead.
        """
        text = block[_LEADING.match(block).end():]
        if "#" in text or "\n\n" in text:
            text = _COMMENTS.sub("", text)
        match = _CANONICAL.fullmatch(text)
        if match is None:
            return None
        chunks: list[Chunk] = []
        has_depth = self.has_depth
        split = match.end("jobs")
        if split:
            rows = text.count("\n", 0, split)
            vals = np.fromstring(text[:split].replace("J", ""), dtype=np.int64, sep=" ")
            if self.jobs_done or vals.size not in (2 * rows, 3 * rows):
                return None
            has_depth = vals.size == 3 * rows
            if self.has_depth not in (None, has_depth):
                return None
            cols = vals.reshape(rows, -1).T
            chunks.append(JobChunk(cols[0], cols[1], cols[2] if has_depth else None))
        if split < len(text):
            src, dst = np.fromstring(text[split:].replace("A", ""), dtype=np.int64, sep=" ").reshape(-1, 2).T
            if not self.sources.isdisjoint(dst.tolist()) or ends_at_earlier_source(src, dst).any() or (src == dst).any():
                return None
            chunks.append(ArcChunk(src, dst))
            self.sources.update(src.tolist())
            self.jobs_done = True
        self.has_depth = has_depth
        self.lineno += block.count("\n")
        return chunks

    def replay(self, block: str) -> Iterator[Chunk]:
        """Parse a block line by line: its valid rows as chunks, then its first error, if any.

        This line parser is the reference for what the format accepts.
        """
        jobs: list[tuple[int, ...]] = []
        arcs: list[tuple[int, int]] = []
        jobs_done, has_depth, sources = self.jobs_done, self.has_depth, self.sources
        lineno = self.lineno
        error = None
        try:  # zero-cost on valid lines; the handlers add the bad line's file:line
            for lineno, raw in enumerate(block.split("\n")[:-1], lineno + 1):
                parts = raw.split()
                if not parts or parts[0].startswith("#"):
                    continue
                tag = parts[0]
                if tag == "J":
                    if jobs_done:
                        raise InputContractError("job line after arc lines")
                    if len(parts) not in (3, 4):
                        raise InputContractError("expected 'J <id> <p> [<depth>]'")
                    if has_depth is None:
                        has_depth = len(parts) == 4
                    elif has_depth != (len(parts) == 4):
                        raise InputContractError("either all job lines carry a depth or none does")
                    if has_depth:
                        row = (int(parts[1]), int(parts[2]), int(parts[3]))
                    else:
                        row = (int(parts[1]), int(parts[2]))
                    if not (0 < row[0] <= P_LIMIT and 0 < row[1] <= P_LIMIT and 0 < row[-1] <= P_LIMIT):
                        Job(*row)  # raises Job's message for a field below 1
                        for name, value in zip(("job id", "processing time", "depth"), row):
                            if value > P_LIMIT:
                                raise InputContractError(f"{name} {value} exceeds 2**63 - 1")
                    jobs.append(row)
                elif tag == "A":
                    if len(parts) != 3:
                        raise InputContractError("expected 'A <src> <dst>'")
                    jobs_done = True
                    src, dst = int(parts[1]), int(parts[2])
                    if not (-P_LIMIT - 1 <= src <= P_LIMIT and -P_LIMIT - 1 <= dst <= P_LIMIT):
                        value = src if not -P_LIMIT - 1 <= src <= P_LIMIT else dst
                        raise InputContractError(f"arc end {value} is outside the int64 range")
                    if dst in sources:
                        raise CycleSuspicionError(f"arc ({src}, {dst}) is not in topological order")
                    if src == dst:
                        raise CycleSuspicionError(f"self-loop arc ({src} -> {dst}) forms a cycle")
                    sources.add(src)
                    arcs.append((src, dst))
                else:
                    raise InputContractError(f"unknown line tag {tag!r}")
        except InputContractError as exc:
            error = type(exc)(f"{self.path}:{lineno}: {exc}")
        except ValueError as exc:  # a field that is no integer, or a value Job rejects
            error = InputContractError(f"{self.path}:{lineno}: {exc}")
        self.jobs_done, self.has_depth, self.lineno = jobs_done, has_depth, lineno
        if jobs:
            cols = np.array(jobs, dtype=np.int64).T
            yield JobChunk(cols[0], cols[1], cols[2] if has_depth else None)
        if arcs:
            src, dst = np.array(arcs, dtype=np.int64).T
            yield ArcChunk(src, dst)
        if error is not None:
            raise error


def iter_chunks(path: str) -> Iterator[Chunk]:
    """Yield the file's events as int64 column chunks, enforcing the stream contract.

    The file is read in blocks of about `BLOCK_CHARS` characters, cut
    at line ends.  A block in the canonical form is checked and parsed
    in bulk; any other block is replayed by the line parser, which
    yields the valid rows before a bad line as chunks and then raises
    with the bad line's ``file:line``.  Line numbers count lines as
    text-mode ``open()`` does.
    """
    reader = _Reader(path)
    rest = ""
    with open(path) as fh:
        while True:
            data = fh.read(BLOCK_CHARS)
            if not data:
                block = rest + "\n" if rest else ""  # a last line without its line end
            else:
                cut = data.rfind("\n") + 1
                if cut == 0:  # no line end yet: a line longer than a block
                    rest += data
                    continue
                block, rest = rest + data[:cut], data[cut:]
            if block:
                chunks = reader.bulk(block)
                if chunks is None:
                    yield from reader.replay(block)
                else:
                    yield from chunks
            if not data:
                return


def iter_stream(path: str) -> Iterator[StreamEvent]:
    """Yield the file's events one at a time: a per-event view of `iter_chunks`."""
    for chunk in iter_chunks(path):
        if isinstance(chunk, JobChunk):
            depths = repeat(None) if chunk.depth is None else chunk.depth.tolist()
            for job_id, p, d in zip(chunk.ids.tolist(), chunk.p.tolist(), depths):
                yield Job(job_id, p, d)
        else:
            for src, dst in zip(chunk.src.tolist(), chunk.dst.tolist()):
                yield Arc(src, dst)


def _arc_line(path: str, k: int) -> int:
    """Line number of the arc at 0-based position ``k`` of a file that parsed."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            if raw.split()[:1] == ["A"]:
                if k == 0:
                    return lineno
                k -= 1
    raise InvariantViolationError(f"{path} has no arc at position {k}")


def read_instance(path: str, m: int = 1) -> Instance:
    """Materialize an instance file; ids must be exactly 1..n and every arc must join two of them."""
    jobs: list[JobChunk] = []
    arcs: list[ArcChunk] = []
    for chunk in iter_chunks(path):
        (jobs if isinstance(chunk, JobChunk) else arcs).append(chunk)
    if not jobs:
        raise InputContractError(f"{path}: no jobs")
    ids = np.concatenate([c.ids for c in jobs])
    n = ids.size
    if not np.array_equal(np.sort(ids), np.arange(1, n + 1)):
        raise InputContractError(f"{path}: job ids must be exactly 1..{n}")
    p = np.empty(n, dtype=np.int64)
    p[ids - 1] = np.concatenate([c.p for c in jobs])
    depth = None
    if jobs[0].depth is not None:
        depth = np.empty(n, dtype=np.int64)
        depth[ids - 1] = np.concatenate([c.depth for c in jobs])
    arc_arr = np.empty((0, 2), dtype=np.int64)
    if arcs:
        arc_arr = np.column_stack([np.concatenate(col) for col in zip(*arcs)])
        outside = ((arc_arr < 1) | (arc_arr > n)).any(axis=1)
        if outside.any():
            k = int(outside.argmax())
            src, dst = arc_arr[k].tolist()
            raise InputContractError(
                f"{path}:{_arc_line(path, k)}: arc ({src}, {dst}) references a job outside 1..{n}"
            )
    meta = {}
    sidecar = path + ".meta.json"
    if os.path.exists(sidecar):
        with open(sidecar) as fh:
            meta = json.load(fh)
        m = int(meta.get("m", m))
    return Instance(p=p, depth=depth, arcs=arc_arr, m=m, meta=meta)


def report_to_dict(report: RunReport) -> dict:
    return {
        "algorithm": report.algorithm,
        "A": int(report.A),
        "sks": [int(t) for t in report.schedule_sketch.times],
        "sketch_nodes": report.sketch_node_count,
        "samples": report.samples_drawn,
        "update_count": report.update_count,
        "params": {k: v for k, v in asdict(report.params).items()},
        "guarantee_condition_met": bool(report.guarantee_condition_met),
        "seed": report.params.seed,
    }


def read_result(path: str) -> dict:
    """A result file's JSON object; InputContractError, naming the file, unless ``sks`` lists sketch times."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not text
            raise InputContractError(f"{path}: {exc}") from None
    sks = doc.get("sks") if isinstance(doc, dict) else None
    if not isinstance(sks, list) or not all(type(t) is int and s <= t for s, t in zip([0] + sks, sks)):
        raise InputContractError(f'{path}: expected a JSON object whose "sks" lists non-decreasing integers >= 0')
    if sks and sks[-1] >> 63:  # the last time is the largest
        raise InputContractError(f"{path}: sketch time {sks[-1]} exceeds 2**63 - 1")
    return doc


def sketch_from_result(doc: dict) -> ScheduleSketch:
    return ScheduleSketch(tuple(int(t) for t in doc["sks"]), source=doc.get("algorithm", ""))


def write_schedule_csv(sched: ConcreteSchedule, path: str) -> None:
    rows = np.column_stack((np.arange(1, sched.n + 1), sched.machine, sched.start, sched.completion))
    with open(path, "w") as fh:
        fh.write("job_id,machine,start,completion\n")
        fh.write("%d,%d,%d,%d\n" * sched.n % tuple(rows.ravel().tolist()))


def write_violations(violations: list[Violation], path: str) -> None:
    doc = [{"kind": v.kind, "jobs": list(v.jobs), "detail": v.detail} for v in violations]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def looks_like_gen_spec(text: str) -> bool:
    return ":" in text and not os.path.exists(text) and text.split(":", 1)[0] in FAMILIES


def parse_gen_spec(text: str) -> tuple[str, dict]:
    """Parse ``family:key=value,...`` into (family, kwargs)."""
    family, _, rest = text.partition(":")
    kwargs: dict = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not _:
                raise ParamError(f"bad generator spec item {item!r}")
            key = key.strip()
            try:
                if key == "shape":
                    kwargs[key] = [int(x) for x in val.split("/")]
                else:
                    kwargs[key] = float(val) if key in ("alpha", "density") else int(val)
            except ValueError:
                raise ParamError(f"bad generator spec item {item!r}") from None
    return family, kwargs


def instance_from_spec(text: str) -> Instance:
    family, kwargs = parse_gen_spec(text)
    seed = kwargs.pop("seed", 0)
    if "pbig" in kwargs:  # the key `access_from_spec` reads, so one spec serves both
        kwargs["p_big"] = kwargs.pop("pbig")
    try:
        if family in FAMILIES:  # else `generate` names the unknown family
            inspect.signature(FAMILIES[family]).bind(**kwargs)
    except TypeError as exc:  # a key missing, or one the family does not take
        raise ParamError(f"generator spec {text!r}: {exc}") from None
    return generate(family, seed=seed, **kwargs)


IMPLICIT_KEYS = {"chain": {"m", "q", "h", "seed"}, "alpha-mixed": {"n", "alpha", "pbig", "small", "c", "m", "h", "seed"}}


def access_from_spec(text: str) -> SampleAccess:
    """Implicit sample access for the families that support it."""
    family, kwargs = parse_gen_spec(text)
    unknown = sorted(set(kwargs) - IMPLICIT_KEYS.get(family, set(kwargs)))
    if unknown:
        raise ParamError(f"generator spec {text!r}: family {family!r} takes no key {unknown[0]!r}")
    kwargs.pop("seed", None)
    try:
        if family == "chain":
            return ChainAccess(m=kwargs["m"], q=kwargs["q"], h=kwargs.get("h", 1))
        if family == "alpha-mixed":
            n = kwargs["n"]
            n_big = ceil_div(int(round(kwargs["alpha"] * n * 10**9)), 10**9)
            return TwoValueAccess(n=n, n_big=n_big, p_big=kwargs["pbig"], p_small=kwargs["small"])
    except KeyError as exc:
        raise ParamError(f"generator spec {text!r} needs {exc.args[0]}= for implicit access") from None
    raise ParamError(f"family {family!r} has no implicit form; materialize it with gen")
