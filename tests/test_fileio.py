"""Instance file format, result files, generator specs."""

import json

import pytest

import schedsketch as ss
from schedsketch import fileio


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
        ],
    )
    def test_bad_field_exits_3_with_location(self, tmp_path, capsys, text, lineno):
        from schedsketch.cli import main

        path = tmp_path / "bad.txt"
        path.write_text(text)
        rc = main(["stream2", "--epsilon", "0.3", "--m", "1", "--in", str(path)])
        assert rc == 3
        assert f"error: {path}:{lineno}: " in capsys.readouterr().err

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("# sched-stream v1\n\n# a comment\nJ 1 2 1\n\nJ 2 1 1\n")
        back = fileio.read_instance(str(path))
        assert back.p.tolist() == [2, 1]


class TestResultFiles:
    def test_round_trip(self, tmp_path):
        inst = ss.chain(m=2, q=3, h=2)
        rep = ss.stream_known(inst.jobs(), ss.AlgoParams(epsilon=0.3, m=2, c=1, h=2))
        path = tmp_path / "r.json"
        fileio.write_result(rep, str(path))
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
