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

`iter_chunks` reads a file in blocks and yields its events as int64
column chunks (`JobChunk`, `ArcChunk`), checking what each line shows
and holding no per-job state.  Ids 1..n, arc ends and arc order need
such state: `read_instance` runs the chunks through the arc-driven
stream modes' `sketch.DepthColumns`, which also gives a file without
depths the depths of its arcs.  `iter_stream` is a per-event view of
the chunks.

A generator spec like ``chain:m=200,q=5,h=3,seed=1`` can stand in for
a file name anywhere an instance is read; the sampling commands can
also serve the chain and constant alpha-mixed families implicitly, so
10^7-job instances never materialize.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import warnings
from dataclasses import asdict
from itertools import repeat
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .errors import CycleSuspicionError, InputContractError, InvariantViolationError, ParamError
from .model import Arc, ArcChunk, Chunk, Instance, Job, JobChunk, RunReport, ScheduleSketch, StreamEvent
from .sketch import DepthColumns

if TYPE_CHECKING:  # the generators, the samplers and the second pass load only where a command uses them
    from .sampling import SampleAccess
    from .schedule import ConcreteSchedule, Violation

HEADER = "# sched-stream v1"
P_LIMIT = 2**63 - 1  # every field is held as int64
BLOCK_CHARS = 1 << 20  # `iter_chunks` reads the file in blocks of about this many bytes
ROW_BLOCK = 1 << 14  # `_format_rows` formats this many rows at a time (fewer pay numpy's per-call cost more often)
# an undecodable byte becomes a lone surrogate, which no field parses, so the line parser rejects it at its line
DECODE_ERRORS = "surrogateescape"


# comment and blank lines at a block's top; once they are cut, every other one follows a "\n", so the
# second pattern matches that "\n" with the line's text, and removing the matches removes the lines
_LEADING = re.compile(rb"(?:(?:#[^\n]*)?\n)*")
_COMMENTS = re.compile(rb"\n(?:#[^\n]*)?(?=\n)")
_JOB_LINES = {2: b"J  \n", 3: b"J   \n"}  # a job line's skeleton by its field count: its digits deleted
_ARC_LINE = b"A  \n"
_VALUES = bytes.maketrans(b" \n", b", ")  # fields apart by ",", lines by " ,"


def _skeleton(body: bytes) -> tuple[int, int, int] | None:
    """(fields, jobs, arcs) when ``body`` less its digits is job lines of one field count, then arc lines."""
    skeleton = body.translate(None, b"0123456789")
    fields = 3 if skeleton.startswith(_JOB_LINES[3]) else 2
    split = skeleton.find(b"A")
    if split < 0:
        split = len(skeleton)
    jobs, arcs = split // (fields + 2), (len(skeleton) - split) // 4
    if skeleton != _JOB_LINES[fields] * jobs + _ARC_LINE * arcs:
        return None
    return fields, jobs, arcs


def _format_rows(cols: dict[str, np.ndarray], head: bytes, sep: bytes) -> list[bytes]:
    """The columns' rows as text, in parts: ``head``, each row's values in decimal apart by ``sep``, a line end.

    The parts joined equal ``%d`` formatting, for values >= 0 only: a
    negative value raises ParamError naming its column (the dict's key)
    before anything is formatted.  Rows go `ROW_BLOCK` at a time through
    one reused uint8 matrix whose line k holds byte k of every row: a
    column gets as many digit lines as its largest value has digits,
    filled last digit first by repeated ``// 10`` (in uint32 below
    10**9, else int64).  A digit above a value's leading one is a
    leading zero and is set to NUL; one ``bytes.translate`` of each
    block, read row by row, drops the NULs and makes its part.
    """
    n = len(next(iter(cols.values())))
    if not n:
        return []
    for name, col in cols.items():
        if col.min() < 0:
            raise ParamError(f"{name} {col.min()} is negative; only values >= 0 can be written")
    widths = [len(str(col.max())) for col in cols.values()]
    template = head + sep.join(b"\0" * width for width in widths) + b"\n"  # a row, its digits NUL
    mat = np.repeat(np.frombuffer(template, np.uint8)[:, None], min(n, ROW_BLOCK), axis=1)
    starts = np.cumsum([len(head)] + [width + len(sep) for width in widths])  # each column's first digit line
    parts = []
    for lo in range(0, n, ROW_BLOCK):
        block = mat[:, : min(n - lo, ROW_BLOCK)]
        for col, start, width in zip(cols.values(), starts, widths):
            col = col[lo : lo + block.shape[1]]
            digits = block[start : start + width]
            value = col.astype(np.uint32 if width <= 9 else np.int64)
            for line in digits[::-1]:
                quot = value // 10
                np.subtract(value, quot * 10, out=line, casting="unsafe")
                value = quot
            digits += ord("0")
            digits[:-1] *= col >= 10 ** np.arange(width - 1, 0, -1, dtype=np.int64)[:, None]  # leading zeros: NUL
        parts.append(block.T.tobytes().translate(None, b"\0"))
    return parts


def write_instance(inst: Instance, path: str, with_depths: bool = True) -> None:
    """Write the line format, job lines with depths when ``with_depths`` and the instance has them.

    A non-empty ``inst.meta`` goes to a ``<path>.meta.json`` sidecar
    with the instance's m and n; without it, a sidecar left by an
    earlier file at ``path`` is removed, so `read_instance` never pairs
    the new file with the old file's m and optimum.  A negative value
    (only arcs are not checked when the instance is built) raises
    ParamError before the file is opened.
    """
    cols = {"job id": np.arange(1, inst.n + 1), "processing time": inst.p}
    if with_depths and inst.depth is not None:
        cols["depth"] = inst.depth
    jobs = _format_rows(cols, b"J ", b" ")
    arcs = _format_rows({"arc source": inst.arcs[:, 0], "arc destination": inst.arcs[:, 1]}, b"A ", b" ")
    with open(path, "wb") as fh:
        fh.write(f"{HEADER}\n".encode())
        fh.writelines(jobs)
        fh.writelines(arcs)
    sidecar = path + ".meta.json"
    if inst.meta:
        with open(sidecar, "w") as fh:
            json.dump({**inst.meta, "m": inst.m, "n": inst.n}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        with contextlib.suppress(FileNotFoundError):
            os.remove(sidecar)


class _Reader:
    """Per-line checks (syntax, int64 range, depth convention, job after arcs, self-loop), block by block."""

    def __init__(self, path: str):
        self.path = path
        self.lineno = 0  # lines before the current block
        self.arcs = 0  # arc lines read
        self.has_depth: bool | None = None  # the depth convention, once a job line fixed it

    def bulk(self, block: bytes) -> list[Chunk] | None:
        """A block's chunks when it is in the canonical form `write_instance` emits, else None.

        Past its comment and blank lines, the block less its digits must
        be job lines of one field count, then arc lines, each with its
        numbers left out; that checks the characters, tags, field counts,
        depth convention and line order, and counts the lines.  One
        strict `np.fromstring` then reads a value after each space: an
        empty field, or digits glued to a tag, leave text it cannot read
        or a value too many.  The one shape both miss, a space at a
        line's end before digits glued to the next line's tag, is looked
        for apart.  Values must lie below 2**63 - 1, as np.fromstring
        saturates past int64.  numpy 1.x warns at unread text and returns
        the values before it, which the count check rejects.

        The state moves past the block only when every check passes;
        on None the caller replays the block line by line instead.
        """
        top = _LEADING.match(block).end()
        skipped = block.count(b"\n", 0, top)  # comment and blank lines
        body = block[top:] if top else block
        shape = _skeleton(body)
        if shape is None:  # comment or blank lines below the top, or no canonical block
            body, cut = _COMMENTS.subn(b"", body)
            shape = _skeleton(body) if cut else None
            if shape is None:
                return None
            skipped += cut
        fields, jobs, arcs = shape
        if not body:
            self.lineno += skipped
            return []
        if body.rfind(b" \n") >= 0 or (jobs and self.arcs):  # rfind: twice as fast as `in` here
            return None
        has_depth = fields == 3 if jobs else self.has_depth
        if self.has_depth not in (None, has_depth):
            return None
        text = body.translate(_VALUES, b"JA")[1:]  # the "," of the first line's tag
        del body
        try:
            with warnings.catch_warnings():  # numpy 1.x: unread text warns, and the parse stops short
                warnings.simplefilter("ignore", DeprecationWarning)
                vals = np.fromstring(text, dtype=np.int64, sep=",")
        except ValueError:  # numpy 2.x: unread text
            return None
        if vals.size != fields * jobs + 2 * arcs or not (vals.min() >= 1 and vals.max() < P_LIMIT):
            return None
        chunks: list[Chunk] = []
        if jobs:
            cols = vals[: fields * jobs].reshape(jobs, fields).T
            chunks.append(JobChunk(cols[0], cols[1], cols[2] if has_depth else None))
        if arcs:
            src, dst = vals[fields * jobs :].reshape(arcs, 2).T
            if (src == dst).any():
                return None
            chunks.append(ArcChunk(src, dst))
            self.arcs += arcs
        self.has_depth = has_depth
        self.lineno += skipped + jobs + arcs
        return chunks

    def replay(self, block: str) -> Iterator[Chunk]:
        """Parse a block line by line: its valid rows as chunks, then its first error, if any.

        This line parser is the reference for what the format accepts.
        """
        jobs: list[tuple[int, ...]] = []
        arcs: list[tuple[int, int]] = []
        has_depth = self.has_depth
        lineno = self.lineno
        error = None
        try:  # zero-cost on valid lines; the handlers add the bad line's file:line
            for lineno, raw in enumerate(block.split("\n")[:-1], lineno + 1):
                parts = raw.split()
                if not parts or parts[0].startswith("#"):
                    continue
                tag = parts[0]
                if tag == "J":
                    if self.arcs or arcs:
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
                    src, dst = int(parts[1]), int(parts[2])
                    if not (-P_LIMIT - 1 <= src <= P_LIMIT and -P_LIMIT - 1 <= dst <= P_LIMIT):
                        value = src if not -P_LIMIT - 1 <= src <= P_LIMIT else dst
                        raise InputContractError(f"arc end {value} is outside the int64 range")
                    if src == dst:
                        raise CycleSuspicionError(f"self-loop arc ({src} -> {dst}) forms a cycle")
                    arcs.append((src, dst))
                else:
                    raise InputContractError(f"unknown line tag {tag!r}")
        except ValueError as exc:  # the line's error, a field that is no integer, or a value Job rejects
            bad = re.search("[\udc80-\udcff]", raw)  # a byte that is not UTF-8, which the decoder escaped
            if bad:
                exc = InputContractError(f"byte {ord(bad[0]) - 0xDC00:#04x} is not UTF-8")
            kind = type(exc) if isinstance(exc, InputContractError) else InputContractError
            error = kind(f"{self.path}:{lineno}: {exc}")
        self.has_depth, self.lineno = has_depth, lineno
        self.arcs += len(arcs)
        if jobs:
            cols = np.array(jobs, dtype=np.int64).T
            yield JobChunk(cols[0], cols[1], cols[2] if has_depth else None)
        if arcs:
            src, dst = np.array(arcs, dtype=np.int64).T
            yield ArcChunk(src, dst)
        if error is not None:
            raise error


def iter_chunks(path: str) -> Iterator[Chunk]:
    """Yield the file's events as int64 column chunks, enforcing the line checks of `_Reader`.

    The file is read in blocks of about `BLOCK_CHARS` bytes, cut at line ends, which become "\n" as in
    text-mode ``open()`` ("\n", "\r\n" and a lone "\r"), whose line numbers they keep.  A block in the
    canonical form `write_instance` emits is checked by its digit-free skeleton and parsed by one strict
    `np.fromstring` (`_Reader.bulk`); any other block is decoded as UTF-8 and replayed by the line
    parser, the reference for what a line may hold, which yields the valid rows before a bad line as
    chunks and then raises with the bad line's ``file:line``.
    """
    reader, rest = _Reader(path), []  # the bytes after the last cut, in parts
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size  # `read` takes the memory it is asked for; a pipe's size is 0
        while True:
            data = fh.read(min(BLOCK_CHARS, max(size - fh.tell(), 1)) if size else BLOCK_CHARS)
            cut = data.rfind(b"\n") + 1 or data.rfind(b"\r", 0, -1) + 1  # a last "\r" may begin a "\r\n"
            if data and not cut:  # no line end yet: a line longer than a block
                rest.append(data)
                continue
            head = b"".join(rest)  # at the end, a last line without its line end gets one
            block = head + (memoryview(data)[:cut] if data else b"\n") if head else data[:cut]  # one copy at most
            rest = [data[cut:]]
            if b"\r" in block:  # text mode's line ends, which the bulk patterns, cutting at "\n", need
                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            chunks = reader.bulk(block) if block else []
            yield from reader.replay(block.decode("utf-8", DECODE_ERRORS)) if chunks is None else chunks
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


def _line_of(path: str, tag: str, k: int) -> int:
    """Line number of the ``tag`` line ("J" or "A") at 0-based position ``k`` among such lines of a file."""
    with open(path, errors=DECODE_ERRORS) as fh:
        for lineno, raw in enumerate(fh, 1):
            if raw.split()[:1] == [tag]:
                if k == 0:
                    return lineno
                k -= 1
    raise InvariantViolationError(f"{path} has no {tag} line at position {k}")


def located(path: str, exc: InputContractError) -> InputContractError:
    """``exc`` with its message after ``path:line: `` when it has a row (the line found by a rescan), else ``path: ``."""
    where = path if exc.row is None else f"{path}:{_line_of(path, *exc.row)}"
    return type(exc)(f"{where}: {exc}")


def read_instance(path: str, m: int = 1) -> Instance:
    """Materialize an instance file, checked as `stream2` checks it: ids 1..n, arc ends and arc order.

    The chunks go through `DepthColumns`, with each job's row where the
    engine keeps its bucket, so the errors are the engine's, in stream
    order, and a file without depths gets the depths its arcs give.
    """
    columns = DepthColumns()
    jobs: list[JobChunk] = []
    arcs: list[ArcChunk] = []
    rows = 0

    def check(step, *args, **kwargs) -> None:  # the columns' errors name the file, and the line of their row
        try:
            step(*args, **kwargs)
        except InputContractError as exc:
            raise located(path, exc) from None

    try:
        for chunk in iter_chunks(path):  # a bad line raises here, with its file:line
            if isinstance(chunk, JobChunk):
                columns.insert_chunk(chunk.ids, np.arange(rows, rows + chunk.ids.size))
                rows += chunk.ids.size
                jobs.append(chunk)
            else:
                check(columns.raise_chunk, chunk.src, chunk.dst)
                arcs.append(chunk)
    except InputContractError:
        check(columns.freeze, ended=False)  # a repeated id on an earlier row wins
        raise
    check(columns.end)
    if not rows:
        raise InputContractError(f"{path}: empty job stream")
    order = columns.u if columns.reordered else slice(None)  # the row of each job, by id
    p = np.concatenate([c.p for c in jobs])[order]
    depth = columns.depth if jobs[0].depth is None else np.concatenate([c.depth for c in jobs])[order]
    arc_arr = np.column_stack([np.concatenate(col) for col in zip(*arcs)]) if arcs else np.empty((0, 2), np.int64)
    meta, sidecar = {}, path + ".meta.json"
    if os.path.exists(sidecar):  # its "m", if any, is the machine count, and its "cstar" the known optimum
        meta = _json_object(sidecar, {"m": m, "cstar": 1}, lambda v: type(v) is int and v >= 1, "is an integer >= 1")
        m = meta.get("m", m)
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


def _json_object(path: str, defaults: dict, ok, expected: str) -> dict:
    """A JSON object file; InputContractError, naming the file, unless ``ok`` holds for each key's value or default."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not text
            raise InputContractError(f"{path}: {exc}") from None
    for key, default in defaults.items():
        if not ok(doc.get(key, default) if isinstance(doc, dict) else None):
            raise InputContractError(f'{path}: expected a JSON object whose "{key}" {expected}')
    return doc


def read_result(path: str) -> dict:
    """A result file's JSON object; InputContractError, naming the file, unless ``sks`` lists sketch times."""

    def ok(sks) -> bool:
        return isinstance(sks, list) and all(type(t) is int and s <= t for s, t in zip([0] + sks, sks))

    doc = _json_object(path, {"sks": None}, ok, "lists non-decreasing integers >= 0")
    sks = doc["sks"]
    if sks and sks[-1] >> 63:  # the last time is the largest
        raise InputContractError(f"{path}: sketch time {sks[-1]} exceeds 2**63 - 1")
    return doc


def sketch_from_result(doc: dict) -> ScheduleSketch:
    return ScheduleSketch(tuple(int(t) for t in doc["sks"]), source=doc.get("algorithm", ""))


def write_schedule_csv(sched: ConcreteSchedule, path: str) -> None:
    """Write the schedule as CSV: a ``job_id,machine,start,completion`` header, then one row per job, by id.

    Every field is >= 0, as `_format_rows` requires: ids and machines
    count from 1, and starts from 0.
    """
    cols = {"job_id": np.arange(1, sched.n + 1), "machine": sched.machine, "start": sched.start,
            "completion": sched.completion}
    rows = _format_rows(cols, b"", b",")
    with open(path, "wb") as fh:
        fh.write(",".join(cols).encode() + b"\n")
        fh.writelines(rows)


def write_violations(violations: list[Violation], path: str) -> None:
    doc = [{"kind": v.kind, "jobs": list(v.jobs), "detail": v.detail} for v in violations]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def looks_like_gen_spec(text: str) -> bool:
    if ":" not in text or os.path.exists(text):
        return False
    from .generators import FAMILIES

    return text.split(":", 1)[0] in FAMILIES


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
            kwargs[key] = spec_value(key, val)
    return family, kwargs


def spec_value(key: str, text: str) -> int | float | list[int]:
    """A generator key's value: counts like 3/4/5 for ``shape``, a float for ``alpha`` and ``density``, else an int."""
    try:
        if key == "shape":
            return [int(x) for x in text.split("/")]
        return float(text) if key in ("alpha", "density") else int(text)
    except ValueError:
        raise ParamError(f"bad generator value {key}={text!r}") from None


def instance_from_spec(text: str) -> Instance:
    family, kwargs = parse_gen_spec(text)
    return build_instance(family, kwargs, f"generator spec {text!r}")


def build_instance(family: str, kwargs: dict, source: str) -> Instance:
    """The family's instance for spec keys ``kwargs``; its function holds the defaults, and ``source`` names errors."""
    from .generators import FAMILIES, generate

    seed = kwargs.pop("seed", 0)
    if family in FAMILIES:  # else `generate` names the unknown family
        kwargs = _bind(family, kwargs, source)
    return generate(family, seed=seed, **kwargs)


def _bind(family: str, kwargs: dict, source: str) -> dict:
    """The family function's arguments, less the seed, for spec keys ``kwargs`` (``pbig`` is ``p_big``) and defaults."""
    import inspect

    from .generators import FAMILIES

    kwargs = {("p_big" if key == "pbig" else key): val for key, val in kwargs.items() if key != "seed"}
    try:
        bound = inspect.signature(FAMILIES[family]).bind(**kwargs)
    except TypeError as exc:  # a key missing, or one the family does not take
        raise ParamError(f"{source}: {exc}") from None
    bound.apply_defaults()
    bound.arguments.pop("seed", None)
    return bound.arguments


def access_from_spec(text: str) -> SampleAccess:
    """Implicit sample access for the families that support it, its keys bound as `build_instance` binds them."""
    from .generators import big_jobs
    from .sampling import ChainAccess, TwoValueAccess

    family, kwargs = parse_gen_spec(text)
    if family not in ("chain", "alpha-mixed"):
        raise ParamError(f"family {family!r} has no implicit form; materialize it with gen")
    args = _bind(family, kwargs, f"generator spec {text!r}")
    if family == "chain":
        return ChainAccess(m=args["m"], q=args["q"], h=args["h"])
    if args["small"] is None:  # small jobs drawn at random have no implicit form
        raise ParamError(f"generator spec {text!r} needs small= for implicit access")
    n_big = big_jobs(args["n"], args["alpha"], args["c"])
    return TwoValueAccess(n=args["n"], n_big=n_big, p_big=args["p_big"], p_small=args["small"])
