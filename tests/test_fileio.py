"""Instance file format, result files, generator specs."""

import json
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import schedsketch as ss
from schedsketch import fileio
from schedsketch.cli import main
from schedsketch.model import ArcChunk, JobChunk
from schedsketch.schedule import schedule_instance


@st.composite
def topological_dag(draw):
    """(n, p, arcs, order): a DAG on jobs 1..n, its arcs in stream order, and its job lines' id order.

    Arcs join jobs earlier to later in a drawn rank order, each at a place between its ends' ranks,
    so every arc into a job comes before every arc out of it.
    """
    n = draw(st.integers(1, 30))
    rank = draw(st.permutations(range(1, n + 1)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1]),
                          max_size=3 * n))
    pairs += [(k, k + 1) for k in range(draw(st.integers(0, n - 1)))]  # a path, as deep as drawn
    places = [i + draw(st.floats(0, 0.5)) * (j - i) for i, j in pairs]  # at most j - 0.5, even rounded
    arcs = [(rank[i], rank[j]) for _, (i, j) in sorted(zip(places, pairs), key=lambda e: e[0])]
    p = draw(st.lists(st.integers(1, 2**63 - 1), min_size=n, max_size=n))
    return n, p, arcs, draw(st.permutations(range(1, n + 1)))


class TestInstanceFormat:
    def test_round_trip_is_byte_identical(self, tmp_path):
        inst = ss.chain(m=2, q=2, h=2)
        path = tmp_path / "inst.txt"
        fileio.write_instance(inst, str(path))
        first = path.read_text()
        back = fileio.read_instance(str(path))
        again = tmp_path / "again.txt"
        fileio.write_instance(back, str(again))
        assert again.read_text() == first
        assert back.p.tolist() == inst.p.tolist()
        assert back.depth.tolist() == inst.depth.tolist()
        assert back.arcs.tolist() == inst.arcs.tolist()

    def test_meta_sidecar_round_trips_m_and_cstar(self, tmp_path):
        inst = ss.chain(m=3, q=2, h=2)
        path = tmp_path / "inst.txt"
        fileio.write_instance(inst, str(path))
        back = fileio.read_instance(str(path))
        assert back.m == 3
        assert back.meta["cstar"] == 4

    def test_a_rewrite_without_meta_drops_the_old_sidecar(self, tmp_path, capsys):
        """The old chain's sidecar would give `bench` its m and optimum (6) for 12 independent jobs of p=5."""
        path = str(tmp_path / "y.txt")
        assert main(["gen", "--family", "chain", "--m", "2", "--q", "3", "--h", "2", "--out", path]) == 0
        assert os.path.exists(path + ".meta.json")
        fileio.write_instance(ss.Instance(p=[5] * 12, depth=None, arcs=np.empty((0, 2)), m=1), path)
        assert not os.path.exists(path + ".meta.json")
        capsys.readouterr()
        assert main(["bench", "--epsilon", "0.3", "--algo", "stream2", "--m", "2", "--trials", "1", "--in", path]) == 0
        head, row = capsys.readouterr().out.splitlines()
        assert dict(zip(head.split(","), row.split(",")))["cstar_or_bound"] == "30"

    def test_a_negative_value_is_refused_before_the_file_opens(self, tmp_path):
        inst = ss.Instance(p=[1, 1], depth=[1, 1], arcs=[[0, -1]], m=1)  # arcs are not checked when built
        path = tmp_path / "inst.txt"
        with pytest.raises(ss.ParamError, match="^arc destination -1 is negative"):
            fileio.write_instance(inst, str(path))
        assert not path.exists()
        path.write_text("kept\n")
        with pytest.raises(ss.ParamError):
            fileio.write_instance(inst, str(path))
        assert path.read_text() == "kept\n"

    def test_depthless_files(self, tmp_path):
        inst = ss.chain(m=1, q=2, h=2)
        path = tmp_path / "inst.txt"
        fileio.write_instance(inst, str(path), with_depths=False)
        back = fileio.read_instance(str(path))
        assert back.depth.tolist() == ss.compute_depths(inst.arcs, inst.n).tolist() == inst.depth.tolist()

    @pytest.mark.parametrize(
        "text,exc",
        [
            ("J 1 1\nA 1 2\nJ 2 1\n", ss.InputContractError),  # job after arc
            ("J 1 1\nJ 1 2\n", ss.InputContractError),  # duplicate id (read)
            ("J 1 1\nJ 3 1\n", ss.InputContractError),  # non-contiguous
            ("J 1 1 1\nJ 2 1\n", ss.InputContractError),  # mixed depth convention
            ("X 1 1\n", ss.InputContractError),  # unknown tag
            ("J 1 1\nJ 2 1\nJ 3 1\nA 1 2\nA 3 1\n", ss.CycleSuspicionError),  # topo order
            ("", ss.InputContractError),  # empty
        ],
    )
    def test_contract_violations(self, tmp_path, text, exc):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(exc):
            fileio.read_instance(str(path))

    @pytest.mark.parametrize(
        "text,lineno",
        [
            ("J a 3\n", 1),  # id is no integer
            ("J 1 1\nJ 2 x\n", 2),  # p is no integer
            ("J 1 2 1\nJ 2 3 1.5\n", 2),  # depth is no integer
            ("J 1 1\nJ 2 1\nA 1 b\n", 3),  # arc end is no integer
            ("J 1 0\n", 1),  # p below 1
            ("J 0 4\n", 1),  # id below 1
            ("J 1 4 0\n", 1),  # depth below 1
            ("J 1 100000000000000000000000\nJ 2 3\nA 1 2\n", 1),  # p past int64
        ],
    )
    def test_bad_field_exits_3_with_location(self, tmp_path, capsys, text, lineno):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        rc = main(["stream2", "--epsilon", "0.3", "--m", "1", "--in", str(path)])
        assert rc == 3
        assert f"error: {path}:{lineno}: " in capsys.readouterr().err

    def test_p_limit_is_int64(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text(f"J 1 {2**63 - 1}\nJ 2 3\n")
        assert fileio.read_instance(str(path)).p.tolist() == [2**63 - 1, 3]
        path.write_text(f"J 1 3\nJ 2 {2**63}\n")
        with pytest.raises(ss.InputContractError, match=f"{path}:2: "):
            fileio.read_instance(str(path))

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("# sched-stream v1\n\n# a comment\nJ 1 2 1\n\nJ 2 1 1\n")
        back = fileio.read_instance(str(path))
        assert back.p.tolist() == [2, 1]

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dag=topological_dag(), block=st.sampled_from([8, 64, 1 << 20]))
    def test_depthless_file_gets_the_arcs_depths(self, tmp_path, monkeypatch, dag, block):
        """Without depths, `read_instance` gives Kahn's depths, and the same p and arcs as with them."""
        monkeypatch.setattr(fileio, "BLOCK_CHARS", block)
        n, p, arcs, order = dag
        depth = ss.compute_depths(arcs, n)
        back = {}
        for with_depths in (True, False):
            path = tmp_path / f"inst-{with_depths}.txt"
            jobs = [f"J {j} {p[j - 1]}" + (f" {depth[j - 1]}" if with_depths else "") for j in order]
            path.write_text("".join(line + "\n" for line in jobs + [f"A {a} {b}" for a, b in arcs]))
            back[with_depths] = fileio.read_instance(str(path))
        assert back[False].depth.tolist() == back[True].depth.tolist() == depth.tolist()
        assert back[False].p.tolist() == back[True].p.tolist() == p
        assert back[False].arcs.tolist() == back[True].arcs.tolist() == [list(arc) for arc in arcs]

    def test_schedule_is_the_same_with_and_without_depths(self, tmp_path, capsys):
        """`schedule` on a generated `layered` file writes the same CSV when the file carries no depths."""
        gen = ["gen", "--family", "layered", "--shape", "40/30/20/10", "--c", "9", "--m", "4", "--seed", "2"]
        res = tmp_path / "r.json"
        csvs = []
        for flags in ([], ["--no-depths"]):
            path, csv = tmp_path / f"inst{len(flags)}.txt", tmp_path / f"s{len(flags)}.csv"
            assert main(gen + flags + ["--out", str(path)]) == 0
            if not flags:
                assert main(["stream2", "--epsilon", "0.3", "--m", "4", "--in", str(path), "--out", str(res)]) == 0
            assert main(["schedule", "--sks", str(res), "--in", str(path), "--m", "4", "--out", str(csv)]) == 0
            csvs.append(csv.read_bytes())
        lines = (tmp_path / "inst1.txt").read_text().splitlines()
        assert {len(line.split()) for line in lines if line.startswith("J")} == {3}  # no depths
        assert csvs[0] == csvs[1]
        assert capsys.readouterr().out.count("makespan 166, 0 violation(s)") == 2


def _line_reference(path: str):
    """Job rows, arc rows and first error of the line parser run over the file a line at a time."""
    reader = fileio._Reader(path)
    jobs, arcs = [], []
    try:
        with open(path) as fh:
            for raw in fh:
                for chunk in reader.replay(raw if raw.endswith("\n") else raw + "\n"):
                    rows = jobs if isinstance(chunk, JobChunk) else arcs
                    rows.extend(zip(*(col.tolist() for col in chunk if col is not None)))
    except ss.InputContractError as exc:
        return jobs, arcs, exc
    return jobs, arcs, None


def _chunk_rows(path: str):
    """The same rows and error from `iter_chunks`, checking the chunks' shape on the way."""
    jobs, arcs = [], []
    try:
        for chunk in fileio.iter_chunks(path):
            cols = [col for col in chunk if col is not None]
            assert all(isinstance(col, np.ndarray) and col.dtype == np.int64 for col in cols)
            assert len({col.size for col in cols}) == 1 and cols[0].size > 0
            if isinstance(chunk, JobChunk):
                assert not arcs, "a job chunk after an arc chunk"
                jobs.extend(zip(*(col.tolist() for col in cols)))
            else:
                assert isinstance(chunk, ArcChunk)
                arcs.extend(zip(*(col.tolist() for col in cols)))
    except ss.InputContractError as exc:
        return jobs, arcs, exc
    return jobs, arcs, None


# Field values the line parser treats differently from the canonical form.
ODD_NUMBERS = ["0{}", "+{}", "-{}", "{}_0", "\u0663", "0", "x", "1.5",
               str(10**18), str(2**63 - 1), str(2**63), str(-(2**63) - 1)]


@st.composite
def instance_text(draw):
    """A valid instance file, then a few mutations, rendered with mixed line ends."""
    n = draw(st.integers(1, 8))
    value = st.one_of(st.integers(1, 9), st.integers(1, 2**63 - 1))
    with_depth = draw(st.booleans())
    lines = [["#", "sched-stream", "v1"]]
    for j in range(1, n + 1):
        depth = [str(draw(st.integers(1, 4)))] if with_depth else []
        lines.append(["J", str(j), str(draw(value)), *depth])
    arcs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] < e[1]),
                         max_size=10, unique=True))
    lines += [["A", str(s), str(d)] for s, d in sorted(arcs, key=lambda e: (e[1], e[0]))]
    seps = [" "] * len(lines)
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["number", "comment", "blank", "sep", "job_after_arc",
                                     "depth", "swap", "indent", "back_arc", "self_loop"]))
        tokens = lines[i]
        if kind in ("comment", "blank"):  # anywhere, the end included
            k = draw(st.integers(0, len(lines)))
            lines.insert(k, ["#", "note"] if kind == "comment" else [draw(st.sampled_from(["", "  "]))])
            seps.insert(k, " ")
        elif kind == "sep":
            seps[i] = draw(st.sampled_from(["\t", "  ", " \t"]))
        elif kind == "number" and tokens[:1] in (["J"], ["A"]):
            k = draw(st.integers(1, len(tokens) - 1))
            tokens[k] = draw(st.sampled_from(ODD_NUMBERS)).format(tokens[k])
        elif kind == "job_after_arc" and tokens[:1] == ["J"]:
            lines.append(lines.pop(i))
            seps.append(seps.pop(i))
        elif kind == "depth" and tokens[:1] == ["J"]:
            lines[i] = tokens[:3] if len(tokens) == 4 else tokens + ["2"]
        elif kind == "swap":
            k = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[k] = lines[k], lines[i]
        elif kind == "indent":
            tokens[0] = " " + tokens[0]
        elif kind == "back_arc" and tokens[:1] == ["A"]:  # ends at a job that was a source
            k = draw(st.integers(i + 1, len(lines)))
            lines.insert(k, ["A", str(draw(st.integers(1, n))), tokens[1]])
            seps.insert(k, " ")
        elif kind == "self_loop":  # in order: its end was no source before it
            k = draw(st.integers(n + 1, len(lines)))
            lines.insert(k, ["A", *[str(draw(st.integers(1, n)))] * 2])
            seps.insert(k, " ")
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    return "".join(sep.join(tokens) + end for tokens, sep, end in zip(lines, seps, ends))


# Reader states a block can meet: arcs read before it or not, and the depth convention so far.
READER_STATES = [(arcs, has_depth) for arcs in (0, 1) for has_depth in (None, True, False)]


def _reader(state) -> fileio._Reader:
    reader = fileio._Reader("blk.txt")
    reader.lineno = 10
    reader.arcs, reader.has_depth = state
    return reader


def _chunk_lists(chunks) -> list:
    return [(type(c).__name__, [None if col is None else col.tolist() for col in c]) for c in chunks]


@st.composite
def canonical_block(draw):
    """(block, fields, mutated): job lines of `fields` fields, then arc lines, then a few mutations.

    The mutations aim at what a block less its digits no longer shows:
    digits glued to a tag, empty fields, spaces at a line's ends, values
    at the int64 edge, other separators and doubled lines.
    """
    fields = draw(st.sampled_from([2, 3]))
    num = st.integers(1, 99).map(str)
    lines = ["J " + " ".join(draw(num) for _ in range(fields)) for _ in range(draw(st.integers(0, 4)))]
    for _ in range(draw(st.integers(0 if lines else 1, 4))):
        src = draw(st.integers(1, 98))
        lines.append(f"A {src} {draw(st.integers(src + 1, 99))}")
    digits = st.sampled_from(["0", "1", "8", "28"])

    def glue(line: str) -> str:  # digits after the tag, or before it
        return line[0] + draw(digits) + line[1:] if draw(st.booleans()) else draw(digits) + line

    kinds = st.sampled_from(["glue", "trailing", "trailing_then_glue", "empty", "leading_space", "value",
                             "tab", "cr", "double"])
    mutated = False
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split(" ")
        k = draw(st.integers(1, len(tokens) - 1))  # a field
        kind = draw(kinds)
        if kind == "glue":
            lines[i] = glue(lines[i])
        elif kind in ("trailing", "trailing_then_glue"):
            lines[i] += " "
            if kind == "trailing_then_glue" and i + 1 < len(lines):
                lines[i + 1] = glue(lines[i + 1])
        elif kind in ("empty", "value", "tab"):
            if kind == "tab":
                tokens[k] = "\t" + tokens[k]
            else:
                tokens[k] = "" if kind == "empty" else draw(st.sampled_from(
                    ["0", "00", "0" + tokens[k], str(10**18), str(2**63 - 2), str(2**63 - 1), str(2**63)]))
            lines[i] = " ".join(tokens)
        elif kind == "leading_space":
            lines[i] = " " + lines[i]
        elif kind == "cr":
            lines[i] += "\r"
        else:
            lines.insert(i, lines[i])
        mutated = True
    return "".join(line + "\n" for line in lines), fields, mutated


# Every generator family, at a few thousand lines, so that blocks of a few KiB cut each file many times.
GENERATED = {
    "chain": dict(m=20, q=10, h=3),
    "layered": dict(shape=[400, 300, 200], c=50, m=4, seed=1),
    "alpha-mixed": dict(n=1000, alpha=0.3, c=2, p_big=2**63 - 2, h=3, seed=2),  # p of 19 digits
    "random-dag": dict(n=300, h=4, density=0.05, m=2, seed=3),
}


class TestChunkedReader:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=instance_text(), block=st.integers(4, 64))
    @example(text="# sched-stream v1\rJ 1 1\n", block=4)  # a comment's pattern must not run past a "\r"
    def test_matches_line_parser(self, tmp_path, text, block):
        path = tmp_path / "inst.txt"
        path.write_bytes(text.encode())
        saved = fileio.BLOCK_CHARS
        fileio.BLOCK_CHARS = block  # blocks end inside lines, comments and runs of arcs
        try:
            jobs, arcs, exc = _chunk_rows(str(path))
        finally:
            fileio.BLOCK_CHARS = saved
        ref_jobs, ref_arcs, ref_exc = _line_reference(str(path))
        assert (jobs, arcs) == (ref_jobs, ref_arcs)
        assert type(exc) is type(ref_exc)
        assert str(exc) == str(ref_exc)

    @pytest.mark.parametrize("at,inserted", [
        (1, ["# between jobs"]),
        (3, [""]),  # between the jobs and the arcs
        (2, ["# a", "", "#", "# b", ""]),  # back to back
        (5, ["# at the end"]),
        (5, ["", "# a", ""]),
        (0, ["# sched-stream v1", "", "# top"]),
    ])
    def test_comments_and_blanks_below_the_top_are_cut_in_bulk(self, tmp_path, monkeypatch, at, inserted):
        lines = ["J 1 5 1", "J 2 7 2", "J 3 9 2", "A 1 2", "A 1 3"]
        lines[at:at] = inserted
        path = tmp_path / "inst.txt"
        path.write_text("".join(line + "\n" for line in lines))
        want = _line_reference(str(path))
        monkeypatch.setattr(fileio._Reader, "replay", None)  # no block leaves the bulk route
        assert _chunk_rows(str(path)) == want
        assert want == ([(1, 5, 1), (2, 7, 2), (3, 9, 2)], [(1, 2), (1, 3)], None)

    @pytest.mark.parametrize("odd", ODD_NUMBERS)
    def test_odd_number_in_a_clean_file_matches_line_parser(self, tmp_path, odd):
        path = tmp_path / "inst.txt"
        for row, k in [(1, 1), (1, 2), (1, 3), (4, 1), (4, 2)]:  # job id, p, depth, arc ends
            rows = [line.split() for line in ("J 1 5 1", "J 2 7 2", "J 3 9 2", "A 1 2", "A 1 3")]
            rows[row][k] = odd.format(rows[row][k])
            path.write_text("".join(" ".join(r) + "\n" for r in rows))
            jobs, arcs, exc = _chunk_rows(str(path))
            ref_jobs, ref_arcs, ref_exc = _line_reference(str(path))
            assert (jobs, arcs, type(exc), str(exc)) == (ref_jobs, ref_arcs, type(ref_exc), str(ref_exc))

    @settings(max_examples=300, deadline=None)
    @given(drawn=canonical_block())
    def test_bulk_chunks_are_the_line_parsers(self, drawn):
        """From every reader state: when `bulk` takes a block, its chunks and the state after are the line parser's."""
        block, fields, mutated = drawn
        for arcs, has_depth in READER_STATES:
            reader = _reader((arcs, has_depth))
            chunks = reader.bulk(block.encode())
            if chunks is None:
                assert vars(reader) == vars(_reader((arcs, has_depth)))  # a declined block moves no state
                assert mutated or (block[0] == "J" and (arcs or has_depth not in (None, fields == 3)))
                continue
            line_reader = _reader((arcs, has_depth))
            assert _chunk_lists(chunks) == _chunk_lists(line_reader.replay(block))
            assert vars(reader) == vars(line_reader)

    @pytest.mark.parametrize("block", ["J 7 6 \n8A 28 4\n", "J 7 6 \nA8 2 3\n"])
    @pytest.mark.parametrize("state", READER_STATES, ids=lambda state: "arcs{}-depth{}".format(*state))
    def test_a_trailing_space_before_glued_digits_is_declined(self, block, state):
        """Less its digits the block is a depth job and an arc, and five values read; the space at the line's end declines it."""
        assert _reader(state).bulk(block.encode()) is None
        with pytest.raises(ss.InputContractError):
            list(_reader(state).replay(block))

    @pytest.mark.parametrize("block", [fileio.BLOCK_CHARS, 4 << 10, 5000])
    @pytest.mark.parametrize("family", sorted(GENERATED))
    def test_generated_files_never_take_the_line_parser(self, tmp_path, monkeypatch, family, block):
        """Every block of a file `gen` writes is parsed in bulk: the line parser is several times slower."""
        def replay(reader, block):
            raise AssertionError(f"{family}: the block after line {reader.lineno} left the bulk route")

        assert set(GENERATED) == set(fileio.FAMILIES)
        inst = ss.generate(family, **GENERATED[family])
        monkeypatch.setattr(fileio, "BLOCK_CHARS", block)
        monkeypatch.setattr(fileio._Reader, "replay", replay)
        path = str(tmp_path / "inst.txt")
        for with_depths in (True, False):
            fileio.write_instance(inst, path, with_depths)
            chunks = list(fileio.iter_chunks(path))
            assert sum(c.ids.size for c in chunks if isinstance(c, JobChunk)) == inst.n
            assert sum(c.src.size for c in chunks if isinstance(c, ArcChunk)) == len(inst.arcs)
            assert len(chunks) > 2 or block == fileio.BLOCK_CHARS  # small blocks cut the file many times

    @pytest.mark.parametrize("block", [fileio.BLOCK_CHARS, 64])
    def test_a_pipe_reads_as_its_file(self, tmp_path, monkeypatch, block):
        """A pipe's size reads 0, so its blocks are not cut to the size: the same chunks as from a file."""
        monkeypatch.setattr(fileio, "BLOCK_CHARS", block)
        path, pipe = tmp_path / "inst.txt", tmp_path / "pipe"
        fileio.write_instance(ss.layered([40, 30], c=9, m=2, seed=1), str(path))
        os.mkfifo(pipe)
        writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()))
        writer.start()
        try:
            assert _chunk_rows(str(pipe)) == _chunk_rows(str(path))
        finally:
            writer.join()

    def test_large_ids_allocate_nothing_by_id(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text(f"J 1 1\nA 1 {2**63 - 1}\n")
        chunks = list(fileio.iter_chunks(str(path)))
        assert [chunk.dst.tolist() for chunk in chunks if isinstance(chunk, ArcChunk)] == [[2**63 - 1]]
        rc = main(["stream2", "--epsilon", "0.3", "--m", "1", "--in", str(path)])
        assert rc == 3

    @pytest.mark.parametrize("text,events,error", [
        # an id of 19 digits is no canonical number: the line parser takes the block; the ids' gap wins
        ("J 1000000000000000000 1 1\nJ 1 1 1\nA 1 999999999999999999\nA 999999999999999999 1000000000000000000\n",
         4, "job ids must be exactly 1..2; no job has id 2"),
        ("J 1000000000000000000 1 1\nJ 1 1 1\nA 1 999999999999999999\nA 999999999999999999 1\n",
         4, "job ids must be exactly 1..2; no job has id 2"),
        # a canonical block with arc ends past the job rows read
        ("J 1 1 1\nJ 2 1 1\nA 1 2\nA 2 10000000\nA 10000000 99999999\n", 5, "{path}:4: arc references unseen job id 10000000"),
        ("J 1 1 1\nJ 2 1 1\nA 1 10000000\nA 10000000 2\nA 2 10000000\n", 5, "{path}:3: arc references unseen job id 10000000"),
    ])
    def test_stream1_allocates_nothing_by_arc_end(self, tmp_path, capsys, text, events, error):
        """`stream1` checks each arc line, not arc order or ends, and holds nothing by arc end; `stream2` checks them."""
        path = tmp_path / "inst.txt"
        path.write_text(text)
        tracemalloc.start()
        try:
            got = main(["stream1", "--epsilon", "0.3", "--m", "1", "--c", "1", "--h", "1", "--in", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["A"], doc["sks"], doc["sketch_nodes"], doc["update_count"]) == (3, [3], 1, events)
        assert peak < 2 << 20
        assert main(["stream2", "--epsilon", "0.3", "--m", "1", "--in", str(path)]) == 3
        assert capsys.readouterr().err == f"error: {error.format(path=path)}\n"

    def test_given_depth_modes_hold_no_per_job_state(self, tmp_path, monkeypatch):
        """`stream1` and `stream3` peak alike on arc files of 10k and 100k jobs: one block and the sketch."""
        monkeypatch.setattr(fileio, "BLOCK_CHARS", 64 << 10)
        paths = {}
        for n in (10_000, 100_000):
            paths[n] = str(tmp_path / f"layered-{n}.txt")
            fileio.write_instance(ss.layered([n // 4] * 4, c=50, m=10, seed=1), paths[n])

        def argv(mode: str, n: int) -> list[str]:
            n_flag = ["--n", str(n)] if mode == "stream3" else []
            return [mode, "--epsilon", "0.3", "--m", "10", "--c", "50", "--h", "4", *n_flag, "--in", paths[n]]

        for mode in ("stream1", "stream3"):
            assert main(argv(mode, 10_000)) == 0  # untraced: the first call makes the process's one-time allocations
            peaks = []
            for n in (10_000, 100_000):
                tracemalloc.start()
                try:
                    assert main(argv(mode, n)) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert max(peaks) <= 1.1 * min(peaks), (mode, peaks)

    def test_arc_modes_hold_under_16_bytes_a_job(self, tmp_path, monkeypatch):
        """`stream2` and `stream4` peak at most 16 bytes a job more on 200k layered jobs than on 100k."""
        monkeypatch.setattr(fileio, "BLOCK_CHARS", 64 << 10)
        paths = {}
        for n in (100_000, 200_000):
            paths[n] = str(tmp_path / f"layered-{n}.txt")
            fileio.write_instance(ss.layered([n // 4] * 4, c=50, m=10, seed=1), paths[n])

        def argv(mode: str, n: int) -> list[str]:
            n_flag = ["--n", str(n)] if mode == "stream4" else []
            return [mode, "--epsilon", "0.3", "--m", "10", *n_flag, "--in", paths[n]]

        for mode in ("stream2", "stream4"):
            assert main(argv(mode, 100_000)) == 0  # untraced: the first call makes the process's one-time allocations
            peaks = []
            for n in (100_000, 200_000):
                tracemalloc.start()
                try:
                    assert main(argv(mode, n)) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert (peaks[1] - peaks[0]) / 100_000 <= 16, (mode, peaks)

    def test_iter_stream_is_a_view_of_the_chunks(self, tmp_path):
        inst = ss.random_dag(n=40, h=3, density=0.3, m=2, c=6, seed=1)
        path = tmp_path / "inst.txt"
        fileio.write_instance(inst, str(path))
        assert list(fileio.iter_stream(str(path))) == list(inst.events())


class TestResultFiles:
    def test_round_trip(self, tmp_path):
        inst = ss.chain(m=2, q=3, h=2)
        rep = ss.stream_known(inst.jobs(), ss.AlgoParams(epsilon=0.3, m=2, c=1, h=2))
        path = tmp_path / "r.json"
        assert main(["stream1", "--epsilon", "0.3", "--m", "2", "--c", "1", "--h", "2",
                     "--in", "chain:m=2,q=3,h=2", "--out", str(path)]) == 0
        doc = fileio.read_result(str(path))
        assert doc["A"] == rep.A
        assert doc["sks"] == list(rep.schedule_sketch.times)
        assert doc["algorithm"] == "stream1"
        assert doc["params"]["epsilon"] == 0.3
        assert json.loads(json.dumps(doc)) == doc
        sks = fileio.sketch_from_result(doc)
        assert sks.times == rep.schedule_sketch.times

    def test_schedule_csv(self, tmp_path):
        sched = ss.sketch_to_schedule(ss.ScheduleSketch((4,)), [1, 2], [1, 1], 1)
        path = tmp_path / "s.csv"
        fileio.write_schedule_csv(sched, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "job_id,machine,start,completion"
        assert lines[1] == "1,1,0,1"
        assert lines[2] == "2,1,1,3"


def percent_write_instance(inst: ss.Instance, path: str, with_depths: bool = True) -> None:
    """The ``%``-format writer `write_instance` replaced, less the sidecar: the reference for its bytes."""
    cols = (np.arange(1, inst.n + 1), inst.p) + ((inst.depth,) if with_depths and inst.depth is not None else ())
    with open(path, "w") as fh:
        fh.write(fileio.HEADER + "\n")
        fh.write(("J" + " %d" * len(cols) + "\n") * inst.n % tuple(np.column_stack(cols).ravel().tolist()))
        fh.write("A %d %d\n" * len(inst.arcs) % tuple(inst.arcs.ravel().tolist()))


def percent_write_schedule_csv(sched, path: str) -> None:
    """The ``%``-format writer `write_schedule_csv` replaced: the reference for its bytes."""
    rows = np.column_stack((np.arange(1, sched.n + 1), sched.machine, sched.start, sched.completion))
    with open(path, "w") as fh:
        fh.write("job_id,machine,start,completion\n")
        fh.write("%d,%d,%d,%d\n" * sched.n % tuple(rows.ravel().tolist()))


DIGIT_EDGES = [0, 9, 10] + [v for k in range(2, 19) for v in (10**k - 1, 10**k)] + [2**63 - 1]
LINE_SHAPES = [(b"J ", b" "), (b"A ", b" "), (b"", b",")]  # job and arc lines, CSV rows


@st.composite
def value_columns(draw):
    """1 to 4 equal-length columns of values >= 0, each below a drawn bound, so both digit dtypes run."""
    n = draw(st.integers(0, 20))
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        top = draw(st.sampled_from([9, 10**9 - 1, 10**9, 10**10 - 1, 2**63 - 1]))
        values = st.integers(0, top) | st.sampled_from([v for v in DIGIT_EDGES if v <= top])
        cols.append(draw(st.lists(values, min_size=n, max_size=n)))
    return cols


class TestWriters:
    @settings(max_examples=300, deadline=None)
    @given(cols=value_columns(), shape=st.sampled_from(LINE_SHAPES), block=st.integers(1, 6))
    @example(cols=[[]], shape=LINE_SHAPES[0], block=1)
    @example(cols=[[0], [2**63 - 1]], shape=LINE_SHAPES[2], block=1)
    @example(cols=[DIGIT_EDGES, DIGIT_EDGES[::-1]], shape=LINE_SHAPES[1], block=4)
    def test_format_rows_equals_percent_d(self, cols, shape, block):
        head, sep = shape
        line = head.decode() + sep.decode().join(["%d"] * len(cols)) + "\n"
        want = (line * len(cols[0]) % tuple(v for row in zip(*cols) for v in row)).encode()
        named = {f"c{k}": np.array(col, dtype=np.int64) for k, col in enumerate(cols)}
        with mock.patch.object(fileio, "ROW_BLOCK", block):  # n up to 20 crosses several blocks
            assert b"".join(fileio._format_rows(named, head, sep)) == want

    def test_format_rows_names_a_negative_value(self):
        with pytest.raises(ss.ParamError, match="^start -3 is negative"):
            fileio._format_rows({"id": np.array([1, 2]), "start": np.array([0, -3])}, b"", b",")

    @pytest.mark.parametrize("block", [fileio.ROW_BLOCK, 7])
    @pytest.mark.parametrize("with_depths", [True, False])
    @pytest.mark.parametrize("family", sorted(GENERATED))
    def test_instance_files_equal_the_percent_writer(self, tmp_path, monkeypatch, family, with_depths, block):
        inst = ss.generate(family, **GENERATED[family])
        monkeypatch.setattr(fileio, "ROW_BLOCK", block)
        fileio.write_instance(inst, str(tmp_path / "new.txt"), with_depths)
        percent_write_instance(inst, str(tmp_path / "old.txt"), with_depths)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()

    @pytest.mark.parametrize("block", [fileio.ROW_BLOCK, 7])
    def test_schedule_csv_equals_the_percent_writer(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(fileio, "ROW_BLOCK", block)
        path, result, csv = (str(tmp_path / name) for name in ("inst.txt", "r.json", "s.csv"))
        fileio.write_instance(ss.generate("layered", **GENERATED["layered"]), path)
        assert main(["stream2", "--epsilon", "0.3", "--m", "4", "--in", path, "--out", result]) == 0
        assert main(["schedule", "--sks", result, "--in", path, "--m", "4", "--out", csv]) == 0
        sks = fileio.sketch_from_result(fileio.read_result(result))
        percent_write_schedule_csv(schedule_instance(sks, fileio.read_instance(path, m=4)), str(tmp_path / "old.csv"))
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestGenSpecs:
    def test_parse(self):
        fam, kw = fileio.parse_gen_spec("chain:m=200,q=5,h=3,seed=1")
        assert fam == "chain" and kw == {"m": 200, "q": 5, "h": 3, "seed": 1}
        fam, kw = fileio.parse_gen_spec("alpha-mixed:n=100,alpha=0.25,c=2,pbig=10")
        assert kw["alpha"] == 0.25

    def test_instance_from_spec(self):
        inst = fileio.instance_from_spec("chain:m=2,q=3,h=2")
        assert inst.n == 12

    def test_alpha_mixed_spec_serves_both_routes(self):
        spec = "alpha-mixed:n=100,alpha=0.5,c=2,pbig=10,small=1"
        inst = fileio.instance_from_spec(spec)
        acc = fileio.access_from_spec(spec)
        assert inst.n == acc.n == 100
        assert int(inst.p.max()) == acc.p_big == 10

    def test_implicit_access(self):
        acc = fileio.access_from_spec("chain:m=1,q=100,h=2")
        assert acc.n == 200
        acc = fileio.access_from_spec("alpha-mixed:n=100,alpha=0.5,pbig=10,small=1")
        assert acc.n == 100 and acc.n_big == 50
        with pytest.raises(ss.ParamError):
            fileio.access_from_spec("alpha-mixed:n=100,alpha=0.5,pbig=10")
        with pytest.raises(ss.ParamError):
            fileio.access_from_spec("random-dag:n=10,h=2,density=0.5")
