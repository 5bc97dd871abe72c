"""Instance file format, result files, generator specs."""

import json
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import schedsketch as ss
from schedsketch import fileio
from schedsketch.cli import main
from schedsketch.model import ArcChunk, JobChunk


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

    def test_depthless_files(self, tmp_path):
        inst = ss.chain(m=1, q=2, h=2)
        path = tmp_path / "inst.txt"
        fileio.write_instance(inst, str(path), with_depths=False)
        back = fileio.read_instance(str(path))
        assert back.depth is None

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
        if kind in ("comment", "blank"):
            lines.insert(i, ["#", "note"] if kind == "comment" else [draw(st.sampled_from(["", "  "]))])
            seps.insert(i, " ")
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


@pytest.fixture(params=[
    pytest.param(True, id="possessive",
                 marks=pytest.mark.skipif(sys.version_info < (3, 11), reason="possessive repeats need 3.11")),
    pytest.param(False, id="plain"),
])
def canonical_patterns(request, monkeypatch):
    """Run a test with the canonical-form patterns of each Python version."""
    for name, pattern in zip(("_CANONICAL", "_LEADING", "_COMMENTS"), fileio._canonical_patterns(request.param)):
        monkeypatch.setattr(fileio, name, pattern)


class TestChunkedReader:
    @pytest.mark.usefixtures("canonical_patterns")
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=instance_text(), block=st.integers(4, 64))
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

    @pytest.mark.usefixtures("canonical_patterns")
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

    def test_large_ids_allocate_nothing_by_id(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text(f"J 1 1\nA 1 {2**63 - 1}\n")
        chunks = list(fileio.iter_chunks(str(path)))
        assert [chunk.dst.tolist() for chunk in chunks if isinstance(chunk, ArcChunk)] == [[2**63 - 1]]
        rc = main(["stream2", "--epsilon", "0.3", "--m", "1", "--in", str(path)])
        assert rc == 3

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
