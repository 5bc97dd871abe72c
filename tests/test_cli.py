"""Every CLI path, checked against golden outputs and exit codes."""

import argparse
import json
import os
import subprocess
import sys

import pytest

import schedsketch as ss
from schedsketch import fileio, sampling
from schedsketch.cli import COMMANDS, build_parser, main
from schedsketch.streaming import STREAMING_ALGORITHMS


@pytest.fixture()
def chain_files(tmp_path):
    inst_path = tmp_path / "inst.txt"
    rc = main(["gen", "--family", "chain", "--m", "200", "--q", "5", "--h", "3",
               "--out", str(inst_path)])
    assert rc == 0
    return tmp_path, inst_path


class TestGenAndStream:
    def test_chain_stream1_golden(self, chain_files):
        tmp, inst_path = chain_files
        out = tmp / "r.json"
        rc = main(["stream1", "--epsilon", "0.3", "--m", "200", "--c", "1", "--h", "3",
                   "--in", str(inst_path), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["A"] == 18
        assert doc["sks"] == [6, 12, 18]
        assert doc["guarantee_condition_met"] is True
        assert doc["sketch_nodes"] == 3
        assert doc["update_count"] == 5000  # 3000 jobs + 2000 arcs

    def test_stream2_discovers_parameters(self, chain_files):
        tmp, inst_path = chain_files
        out = tmp / "r2.json"
        rc = main(["stream2", "--epsilon", "0.3", "--m", "200",
                   "--in", str(inst_path), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["A"] == 18

    def test_stream3_and_stream4(self, chain_files):
        tmp, inst_path = chain_files
        out3, out4 = tmp / "r3.json", tmp / "r4.json"
        assert main(["stream3", "--epsilon", "0.3", "--m", "200", "--c", "1", "--h", "3",
                     "--n", "3000", "--in", str(inst_path), "--out", str(out3)]) == 0
        assert main(["stream4", "--epsilon", "0.3", "--m", "200",
                     "--in", str(inst_path), "--out", str(out4)]) == 0  # n pre-scanned
        d3, d4 = json.loads(out3.read_text()), json.loads(out4.read_text())
        assert d3["A"] == d4["A"] == 18 + 1  # + ceil(p_max/n)

    def test_alpha_mixed_spec_for_stream3(self, capsys):
        rc = main(["stream3", "--epsilon", "0.3", "--m", "1", "--c", "2", "--h", "1",
                   "--n", "1000", "--in", "alpha-mixed:n=1000,alpha=0.5,c=2,pbig=10"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["algorithm"] == "stream3"

    def test_empty_instance_exits_3(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# sched-stream v1\n")
        rc = main(["stream1", "--epsilon", "0.3", "--m", "1", "--c", "1", "--h", "1",
                   "--in", str(empty)])
        assert rc == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["stream2"], ["stream4", "--n", "2"]])
    def test_self_loop_exits_3(self, tmp_path, capsys, argv):
        inst = tmp_path / "i.txt"
        inst.write_text("J 1 3\nJ 2 3\nA 1 1\n")
        rc = main([*argv, "--epsilon", "0.3", "--m", "1", "--in", str(inst)])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {inst}:3: self-loop arc (1 -> 1) forms a cycle\n"

    @pytest.mark.parametrize("argv", [
        ["stream1", "--c", "3", "--h", "2"],
        ["stream2"],
        ["stream3", "--c", "3", "--h", "2", "--n", "2"],
        ["stream4", "--n", "2"],
    ])
    def test_self_loop_exits_3_at_its_line_in_every_stream_mode(self, tmp_path, capsys, argv):
        # the depth-given modes pass over arcs, and the raise to depth 3 passes the job count
        inst = tmp_path / "i.txt"
        inst.write_text("J 1 3 1\nJ 2 2 2\nA 1 2\nA 2 2\n")
        rc = main([*argv, "--epsilon", "0.3", "--m", "1", "--in", str(inst)])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {inst}:4: self-loop arc (2 -> 2) forms a cycle\n"

    @pytest.mark.parametrize("argv", [["stream2"], ["stream4", "--n", "2"]])
    def test_gapped_ids_exit_3(self, tmp_path, capsys, argv):
        inst = tmp_path / "i.txt"
        inst.write_text("J 1 1\nJ 3 1\nA 1 3\n")
        rc = main([*argv, "--epsilon", "0.3", "--m", "1", "--in", str(inst)])
        assert rc == 3
        assert capsys.readouterr().err == "error: job ids must be exactly 1..2; no job has id 2\n"

    @pytest.mark.parametrize("text,where", [
        ("# sched-stream v1\nJ 1 1\nJ 2 1\n# note\nJ 1 2\nJ 3 1\n", "5: duplicate job id 1 in stream"),
        ("J 1 1\r\nJ 2 1\r\r# note\rJ 1 2\n", "5: duplicate job id 1 in stream"),  # lines as text-mode open() counts them
        ("J 1 1\nJ 2 1\nJ 3 1\n\nA 1 2\nA 2 7\n", "6: arc references unseen job id 7"),
        # the bad arc wins over the malformed line after it
        ("J 1 1\nJ 2 1\nJ 3 1\nA 1 2\n# note\nA 3 1\nA 1\n",
         "6: arc (3 -> 1) arrived after 1 was already a source; arc stream is not in topological order"),
    ])
    @pytest.mark.parametrize("argv", [["stream2"], ["stream4", "--n", "3"]])
    def test_engine_error_names_its_line(self, tmp_path, capsys, argv, text, where):
        """The engine raises with the row's stream position; the CLI rescans the file for its line."""
        inst = tmp_path / "i.txt"
        inst.write_text(text)
        rc = main([*argv, "--epsilon", "0.3", "--m", "1", "--in", str(inst)])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {inst}:{where}\n"

    @pytest.mark.parametrize("text", [b"J 1 1\nJ 2 \xff\n", b"J 1 1\n\xff 2 1\n"], ids=["field", "tag"])
    @pytest.mark.parametrize("argv", [["stream2", "--epsilon", "0.3", "--m", "1"], ["oracle", "list"]])
    def test_undecodable_byte_is_named(self, tmp_path, capsys, argv, text):
        """A byte that is not UTF-8 is named as a byte, not as the decoder's surrogate."""
        inst = tmp_path / "i.txt"
        inst.write_bytes(text)
        rc = main([*argv, "--in", str(inst)])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {inst}:2: byte 0xff is not UTF-8\n"

    @pytest.mark.parametrize("argv", [["stream2"], ["stream4", "--n", "3"]])
    def test_gap_wins_over_a_job_after_arcs(self, tmp_path, capsys, argv):
        """The job section ends at the first arc, where the gap is found, before the job line after it."""
        inst = tmp_path / "i.txt"
        inst.write_text("J 1 1\nJ 3 1\nA 1 3\nJ 2 1\n")
        rc = main([*argv, "--epsilon", "0.3", "--m", "1", "--in", str(inst)])
        assert rc == 3
        assert capsys.readouterr().err == "error: job ids must be exactly 1..2; no job has id 2\n"

    def test_stream3_n_squared_past_int64_exits_3(self, tmp_path, capsys):
        # n^2 = 1.6e19 is past int64; --n is checked only at the end of the stream
        inst = tmp_path / "i.txt"
        inst.write_text("J 1 3 1\nJ 2 5 2\nA 1 2\n")
        rc = main(["stream3", "--epsilon", "0.3", "--m", "1", "--c", "5", "--h", "2",
                   "--n", "4000000000", "--in", str(inst)])
        assert rc == 3
        assert capsys.readouterr().err == "error: stream carried 2 jobs but n=4000000000 was declared\n"

    def test_bad_epsilon_exits_2(self, tmp_path, capsys):
        inst = tmp_path / "i.txt"
        inst.write_text("J 1 1 1\n")
        rc = main(["stream1", "--epsilon", "2.0", "--m", "1", "--c", "1", "--h", "1",
                   "--in", str(inst)])
        assert rc == 2

    def test_gen_spec_instead_of_file(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["stream1", "--epsilon", "0.3", "--m", "200", "--c", "1", "--h", "3",
                   "--in", "chain:m=200,q=5,h=3", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["A"] == 18

    @pytest.mark.parametrize("cmd", ["stream1", "stream2", "stream3", "stream4"])
    def test_gen_spec_and_its_file_agree(self, tmp_path, cmd):
        """A generator spec streams as int64 chunks of the instance, a file through the reader."""
        spec = "random-dag:n=300,h=4,density=0.2,m=2,c=40,seed=3"
        given = cmd in ("stream1", "stream3")
        path = tmp_path / "i.txt"
        gen = ["gen", "--family", "random-dag", "--n", "300", "--h", "4", "--density", "0.2",
               "--m", "2", "--c", "40", "--seed", "3", "--out", str(path)]
        assert main(gen if given else gen + ["--no-depths"]) == 0
        argv = [cmd, "--epsilon", "0.05", "--m", "2", "--n", "300", "--alpha", "0.5"]
        if given:
            argv += ["--c", "40", "--h", "4"]
        docs = []
        for source in (spec, str(path)):
            out = tmp_path / "r.json"
            assert main(argv + ["--in", source, "--out", str(out)]) == 0
            docs.append(json.loads(out.read_text()))
        assert docs[0] == docs[1]

    def test_csv_format(self, chain_files, capsys):
        tmp, inst_path = chain_files
        rc = main(["stream1", "--epsilon", "0.3", "--m", "200", "--c", "1", "--h", "3",
                   "--in", str(inst_path), "--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("algorithm,A,t_h")
        assert out[1].startswith("stream1,18,18")


class TestSchedule:
    def test_round_trip_schedule(self, chain_files):
        tmp, inst_path = chain_files
        res = tmp / "r.json"
        main(["stream1", "--epsilon", "0.3", "--m", "200", "--c", "1", "--h", "3",
              "--in", str(inst_path), "--out", str(res)])
        csv = tmp / "sched.csv"
        rc = main(["schedule", "--sks", str(res), "--in", str(inst_path),
                   "--m", "200", "--out", str(csv)])
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 3001
        violations = json.loads((tmp / "sched.csv.violations.json").read_text())
        assert violations == []

    def test_infeasible_sketch_exits_4(self, tmp_path):
        inst = tmp_path / "i.txt"
        inst.write_text("J 1 1 1\nJ 2 1 1\n")
        res = tmp_path / "r.json"
        res.write_text(json.dumps({"algorithm": "stream1", "sks": [1]}))
        rc = main(["schedule", "--sks", str(res), "--in", str(inst),
                   "--m", "1", "--out", str(tmp_path / "s.csv")])
        assert rc == 4

    def test_p_past_int64_exits_3(self, tmp_path, capsys):
        inst = tmp_path / "i.txt"
        inst.write_text("J 1 100000000000000000000000\nJ 2 3\nA 1 2\n")
        res = tmp_path / "r.json"
        res.write_text(json.dumps({"algorithm": "stream2", "sks": [1, 2]}))
        rc = main(["schedule", "--sks", str(res), "--in", str(inst),
                   "--m", "1", "--out", str(tmp_path / "s.csv")])
        assert rc == 3
        assert f"error: {inst}:1: " in capsys.readouterr().err

    def test_sketch_time_past_int64_exits_3(self, tmp_path, capsys):
        inst, res = tmp_path / "i.txt", tmp_path / "r.json"
        inst.write_text(f"J 1 {2**62} 1\nJ 2 {2**62} 2\nA 1 2\n")
        assert main(["stream2", "--epsilon", "0.3", "--m", "1", "--in", str(inst), "--out", str(res)]) == 0
        doc = json.loads(res.read_text())
        assert doc["A"] == 2**64
        capsys.readouterr()
        rc = main(["schedule", "--sks", str(res), "--in", str(inst), "--m", "1", "--out", str(tmp_path / "s.csv")])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [f"error: {res}: sketch time {doc['sks'][-1]} exceeds 2**63 - 1"]

    def test_depth_summing_past_int64(self, tmp_path, capsys):
        inst, res, csv = tmp_path / "i.txt", tmp_path / "r.json", tmp_path / "s.csv"
        inst.write_text("".join(f"J {j} {2**60} 1\n" for j in range(1, 17)))
        main(["stream1", "--epsilon", "0.3", "--m", "16", "--c", str(2**60), "--h", "1", "--in", str(inst),
              "--out", str(res)])
        assert json.loads(res.read_text())["sks"] == [2**61]
        capsys.readouterr()
        assert main(["schedule", "--sks", str(res), "--in", str(inst), "--m", "16", "--out", str(csv)]) == 0
        assert capsys.readouterr().out == f"makespan {2**61}, 0 violation(s)\n"
        rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        assert [int(machine) for _, machine, _, _ in rows] == [j // 2 + 1 for j in range(16)]

    def test_completion_past_int64_exits_3(self, tmp_path, capsys):
        """A job placed at its depth's start that runs past int64 is an error, not a wrapped completion."""
        inst, res, csv = tmp_path / "i.txt", tmp_path / "r.json", tmp_path / "s.csv"
        inst.write_text(f"J 1 1 1\nJ 2 {2**62} 2\nA 1 2\n")
        res.write_text(json.dumps({"algorithm": "stream2", "sks": [2**62, 2**62 + 2]}))
        rc = main(["schedule", "--sks", str(res), "--in", str(inst), "--m", "2", "--out", str(csv)])
        assert rc == 3
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: job 2 completion time {2**63} exceeds 2**63 - 1\n")
        assert not csv.exists()

    @pytest.mark.parametrize(
        "text,where",
        [
            ("J 1 3 100000000000000000000000\nJ 2 3 1\n", "1: depth 100000000000000000000000 exceeds 2**63 - 1"),
            ("J 1 3\nJ 2 3\nA 1 100000000000000000000000\n",
             "3: arc end 100000000000000000000000 is outside the int64 range"),
            ("J 1 3\nJ 2 3\nA 1 2\nA 1 3\n", "4: arc references unseen job id 3"),
            # an out-of-order arc wins over the malformed line after it
            ("J 1 3\nJ 2 3\nJ 3 3\nA 1 2\nA 3 1\nA 1\n",
             "5: arc (3 -> 1) arrived after 1 was already a source; arc stream is not in topological order"),
        ],
    )
    @pytest.mark.parametrize("cmd", ["schedule", "oracle"])
    def test_bad_field_or_arc_end_exits_3_with_location(self, tmp_path, capsys, text, where, cmd):
        inst = tmp_path / "i.txt"
        inst.write_text(text)
        if cmd == "schedule":
            res = tmp_path / "r.json"
            res.write_text(json.dumps({"algorithm": "stream2", "sks": [6, 9]}))
            argv = ["schedule", "--sks", str(res), "--out", str(tmp_path / "s.csv")]
        else:
            argv = ["oracle", "list"]
        rc = main([*argv, "--in", str(inst), "--m", "1"])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {inst}:{where}\n"


class TestOracle:
    def test_exact_and_list(self, tmp_path, capsys):
        inst = tmp_path / "i.txt"
        inst.write_text("J 1 1 1\nJ 2 1 1\nJ 3 2 1\n")
        assert main(["oracle", "exact", "--in", str(inst), "--m", "2"]) == 0
        assert capsys.readouterr().out.strip() == "2"
        assert main(["oracle", "list", "--in", str(inst), "--m", "2"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    @pytest.mark.parametrize("which", ["exact", "list"])
    def test_self_loop_with_given_depths_exits_3(self, tmp_path, capsys, which):
        """The reader meets the self-loop at its line; the given depths do not hide it."""
        inst = tmp_path / "i.txt"
        inst.write_text("J 1 1 1\nJ 2 1 2\nA 1 2\nA 2 2\n")
        assert main(["oracle", which, "--in", str(inst), "--m", "1"]) == 3
        assert capsys.readouterr().err == f"error: {inst}:4: self-loop arc (2 -> 2) forms a cycle\n"

    @pytest.mark.parametrize("job,arc", [("", ""), ("J 3 1\n", "A 2 3\n")])
    @pytest.mark.parametrize("which", ["exact", "list"])
    def test_completion_past_int64_exits_3(self, tmp_path, capsys, which, job, arc):
        """A chain whose optimum is 2**63 or more: the list schedule's second completion is past int64."""
        inst = tmp_path / "i.txt"
        inst.write_text(f"J 1 {2**62}\nJ 2 {2**62}\n{job}A 1 2\n{arc}")
        assert main(["oracle", which, "--in", str(inst), "--m", "1"]) == 3
        assert capsys.readouterr() == ("", f"error: job 2 completion time {2**63} exceeds 2**63 - 1\n")

    def test_guard_exits_2(self, tmp_path, capsys):
        inst = tmp_path / "i.txt"
        inst.write_text("".join(f"J {j} 1 1\n" for j in range(1, 14)))
        assert main(["oracle", "exact", "--in", str(inst), "--m", "1"]) == 2


class TestSample:
    def test_sample1_on_implicit_chain(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["sample1", "--epsilon", "0.5", "--m", "1", "--c", "1", "--h", "1",
                   "--in", "chain:m=1,q=1000000,h=1", "--seed", "7",
                   "--confidence-scale", "0.0625", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["A"] == 1000001
        assert doc["samples"] == 230073
        assert doc["seed"] == 7

    def test_sample2_trials_batch(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["sample2", "--epsilon", "0.5", "--m", "1", "--c", "10", "--h", "1",
                   "--alpha", "0.5", "--in", "alpha-mixed:n=100000,alpha=0.5,pbig=10,small=1",
                   "--trials", "3", "--confidence-scale", "1e-9", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["algorithm"] == "sample2"
        assert len(doc["trials"]) == 3
        seeds = [t["seed"] for t in doc["trials"]]
        assert seeds == [0, 1, 2]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sample2_scaled_down_stays_accurate(self, capsys, seed):
        # confidence_scale shrinks n' only; the ~30 w0 draws must find a p=1000 job
        cstar = 250_000 * 1000 + 750_000 * 1  # m = 1, depth 1: the total processing time
        rc = main(["sample2", "--epsilon", "0.5", "--m", "1", "--c", "2", "--h", "1",
                   "--alpha", "0.25", "--confidence-scale", "0.0625", "--seed", str(seed),
                   "--in", "alpha-mixed:n=1000000,alpha=0.25,c=2,pbig=1000,small=1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["A"] - cstar) <= 0.5 * cstar

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("argv", [  # the benchmark's three sampler sets, as perfbench/workloads.py gives them
        ["sample1", "--m", "1", "--c", "1", "--h", "3", "--confidence-scale", "0.00390625",
         "--in", "chain:m=1,q=3333333,h=3"],
        ["sample2", "--m", "1", "--c", "10", "--h", "1", "--alpha", "0.5", "--confidence-scale", "1.3e-12",
         "--in", "alpha-mixed:n=10000000,alpha=0.5,c=10,pbig=10,small=1"],
        ["sample2", "--m", "1", "--c", "2", "--h", "1", "--alpha", "0.25", "--confidence-scale", "1.2e-10",
         "--in", "alpha-mixed:n=10000000,alpha=0.25,c=2,pbig=1000,small=1"],
    ], ids=["sample1-chain", "sample2-half", "sample2-quarter"])
    def test_batch_size_changes_no_output(self, argv, seed, capsys, monkeypatch):
        """The sample is drawn in batches; the output is the one that a single batch of 2**20 draws gives."""
        argv = argv + ["--epsilon", "0.5", "--seed", str(seed), "--trials", "1"]
        assert main(argv) == 0
        batched = capsys.readouterr().out
        monkeypatch.setattr(sampling, "_CHUNK", 1 << 20)
        assert main(argv) == 0
        assert capsys.readouterr().out == batched

    def test_sample_on_materialized_file(self, chain_files):
        tmp, inst_path = chain_files
        out = tmp / "r.json"
        rc = main(["sample1", "--epsilon", "0.5", "--m", "200", "--c", "1", "--h", "3",
                   "--in", str(inst_path), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["samples"] == 3000  # cap fallback scans everything once


    @pytest.mark.parametrize("argv", [
        ["sample1", "--c", "9223372036854775807", "--h", "1"],
        ["sample2", "--c", "2", "--h", "1", "--alpha", "1"],
    ])
    def test_p_next_to_int64_limit(self, tmp_path, argv):
        inst = tmp_path / "i.txt"
        inst.write_text("J 1 9223372036854775807 1\nJ 2 9223372036854775000 1\n")
        out = tmp_path / "r.json"
        rc = main([*argv, "--epsilon", "0.3", "--m", "1", "--in", str(inst), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["A"] >= 2 * 9223372036854775000


class TestBench:
    def test_bench_csv(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["bench", "--algo", "sample1", "--epsilon", "0.5", "--m", "1",
                   "--c", "1", "--h", "1", "--in", "chain:m=1,q=1000000,h=1",
                   "--trials", "3", "--confidence-scale", "0.0625", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "seed,A,cstar_or_bound,ratio,samples,sketch_nodes"
        assert len(lines) == 4
        seed, a, ref, ratio, samples, nodes = lines[1].split(",")
        assert a == "1000001" and ref == "1e+06"

    def test_bench_streaming(self, chain_files):
        tmp, inst_path = chain_files
        out = tmp / "b.csv"
        rc = main(["bench", "--algo", "stream1", "--epsilon", "0.3", "--m", "200",
                   "--c", "1", "--h", "3", "--in", str(inst_path), "--trials", "2",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[1] == "18"
        assert lines[1].split(",")[3] == "1.200000"

    def test_bench_bound_divides_by_the_m_flag(self, tmp_path):
        inst, out = tmp_path / "i.txt", tmp_path / "b.csv"
        inst.write_text("".join(f"J {j} 10 1\n" for j in range(1, 401)))  # no sidecar: the file's m is 1
        main(["bench", "--algo", "stream1", "--epsilon", "0.3", "--m", "4", "--c", "10", "--h", "1",
              "--in", str(inst), "--trials", "1", "--out", str(out)])
        assert out.read_text().splitlines()[1] == "0,1010,1000,1.010000,0,1"

    def test_bench_takes_cstar_only_for_its_m(self, tmp_path):
        out = tmp_path / "b.csv"
        main(["bench", "--algo", "stream1", "--epsilon", "0.3", "--m", "100", "--c", "1", "--h", "3",
              "--in", "chain:m=200,q=5,h=3", "--trials", "1", "--out", str(out)])
        assert out.read_text().splitlines()[1] == "0,33,30,1.100000,0,3"  # the spec's cstar 15 holds for m = 200

    def test_bench_bound_sums_p_exactly(self, tmp_path):
        inst, out = tmp_path / "i.txt", tmp_path / "b.csv"
        inst.write_text(f"J 1 {2**62} 1\nJ 2 {2**62} 1\n")
        main(["bench", "--algo", "stream1", "--epsilon", "0.3", "--m", "1", "--c", str(2**62), "--h", "1",
              "--in", str(inst), "--trials", "1", "--out", str(out)])
        assert out.read_text().splitlines()[1].split(",")[2] == f"{float(2**63):g}"

    def test_bench_streaming_runs_once(self, chain_files, monkeypatch):
        """A stream mode ignores the seed: one run, its report on every seed's row."""
        tmp, inst_path = chain_files
        calls = []
        run = STREAMING_ALGORITHMS["stream1"]
        monkeypatch.setitem(STREAMING_ALGORITHMS, "stream1", lambda *a, **kw: calls.append(1) or run(*a, **kw))
        out = tmp / "b.csv"
        rc = main(["bench", "--algo", "stream1", "--epsilon", "0.3", "--m", "200", "--c", "1", "--h", "3",
                   "--in", str(inst_path), "--trials", "3", "--seed", "5", "--out", str(out)])
        assert rc == 0
        assert len(calls) == 1
        assert out.read_text().splitlines()[1:] == [f"{seed},18,15,1.200000,0,3" for seed in (5, 6, 7)]

    def test_bench_streaming_matches_event_runs(self, tmp_path):
        spec = "layered:shape=40/30/20,c=9,m=3,seed=2"
        out = tmp_path / "b.csv"
        rc = main(["bench", "--algo", "stream2", "--epsilon", "0.3", "--m", "3", "--in", spec,
                   "--trials", "2", "--out", str(out)])
        assert rc == 0
        inst = fileio.instance_from_spec(spec)
        want = ss.stream_unknown(inst.events(with_depth=False), ss.AlgoParams(epsilon=0.3, m=3, n=inst.n))
        for row in out.read_text().splitlines()[1:]:
            seed, a, ref, ratio, samples, nodes = row.split(",")
            assert (int(a), int(nodes)) == (want.A, want.sketch_node_count)


class TestTight:
    """``--tight`` reaches every run: single, batched trials and bench rows."""

    @pytest.fixture()
    def gapped(self, tmp_path):
        path = tmp_path / "gap.txt"
        path.write_text("J 1 1 1\nJ 2 1 3\n")  # depth 2 holds no job
        return str(path)

    def test_sample_trials_keep_tight(self, gapped, capsys):
        argv = ["sample1", "--epsilon", "0.5", "--m", "1", "--c", "1", "--h", "3", "--tight", "--in", gapped]
        assert main(argv) == 0
        single = json.loads(capsys.readouterr().out)
        assert single["sks"] == [2, 2, 4]
        assert main([*argv, "--trials", "2"]) == 0
        trials = json.loads(capsys.readouterr().out)["trials"]
        assert [t["sks"] for t in trials] == [[2, 2, 4], [2, 2, 4]]

    @pytest.mark.parametrize("algo", ["sample1", "stream1"])
    def test_bench_keeps_tight(self, gapped, algo, capsys):
        argv = ["--epsilon", "0.5", "--m", "1", "--c", "1", "--h", "3", "--in", gapped]
        assert main([algo, *argv, "--tight"]) == 0
        tight_a = json.loads(capsys.readouterr().out)["A"]
        assert main([algo, *argv]) == 0
        assert json.loads(capsys.readouterr().out)["A"] != tight_a  # the empty depth pays without --tight
        assert main(["bench", "--algo", algo, *argv, "--tight", "--trials", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [int(row.split(",")[1]) for row in rows] == [tight_a, tight_a]


class TestInternalError:
    def test_invariant_violation_exits_5(self, chain_files, monkeypatch, capsys):
        from schedsketch import cli

        def broken(*args, **kwargs):
            raise ss.InvariantViolationError("sketch and depth table disagree")

        monkeypatch.setitem(cli.STREAMING_ALGORITHMS, "stream2", broken)
        _, inst_path = chain_files
        assert main(["stream2", "--epsilon", "0.3", "--m", "200", "--in", str(inst_path)]) == 5
        captured = capsys.readouterr()
        assert captured.err == "error: internal: sketch and depth table disagree\n"
        assert captured.out == ""


class TestGenFamilies:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--family", "layered", "--shape", "3/4/5", "--c", "3", "--m", "2"],
            ["gen", "--family", "alpha-mixed", "--n", "60", "--alpha", "0.2", "--c", "2",
             "--pbig", "10", "--h", "2"],
            ["gen", "--family", "random-dag", "--n", "20", "--h", "3", "--density", "0.3",
             "--m", "2"],
        ],
    )
    def test_other_families(self, tmp_path, argv):
        out = tmp_path / "i.txt"
        assert main(argv + ["--out", str(out)]) == 0
        from schedsketch import fileio

        inst = fileio.read_instance(str(out))
        assert inst.n > 0

    def test_missing_family_params_exit_2(self, tmp_path):
        rc = main(["gen", "--family", "alpha-mixed", "--out", str(tmp_path / "i.txt")])
        assert rc == 2


class TestSketchOut:
    def test_stream_persists_input_sketch(self, chain_files):
        tmp, inst_path = chain_files
        sk_path = tmp / "sk.json"
        rc = main(["stream2", "--epsilon", "0.3", "--m", "200", "--in", str(inst_path),
                   "--out", str(tmp / "r.json"), "--sketch-out", str(sk_path)])
        assert rc == 0
        doc = json.loads(sk_path.read_text())
        assert doc["p_min"] == 1 and doc["p_max"] == 1
        assert sum(e["n"] for e in doc["entries"]) == 3000
        assert [tuple((e["u"], e["d"])) for e in doc["entries"]] == sorted(
            (e["u"], e["d"]) for e in doc["entries"]
        )


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        from schedsketch.cli import _worker_count

        monkeypatch.setenv("SCHEDSKETCH_THREADS", "3")
        assert _worker_count() == 3
        monkeypatch.delenv("SCHEDSKETCH_THREADS")
        assert _worker_count() >= 1

    def test_one_trial_starts_no_pool(self, tmp_path):
        """One trial runs in the calling thread, for `sample1` and for `bench`: `concurrent.futures` is never imported."""
        code = (
            "import sys\n"
            "import schedsketch.cli as cli\n"
            "spec = ['--epsilon', '0.5', '--m', '1', '--c', '1', '--h', '3', '--in', 'chain:m=1,q=100,h=3',"
            " '--confidence-scale', '0.0625', '--trials', '1', '--out', sys.argv[1]]\n"
            "assert cli.main(['sample1', *spec]) == 0\n"
            "assert cli.main(['bench', '--algo', 'sample1', *spec]) == 0\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")], capture_output=True, text=True,
                              env={**os.environ, "SCHEDSKETCH_THREADS": "4"})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_trials_equal_single_runs(self, monkeypatch, tmp_path, threads):
        """`--trials 3`, in one thread or a pool, gives the rows of three one-trial runs at seeds s, s + 1, s + 2."""
        monkeypatch.setenv("SCHEDSKETCH_THREADS", threads)
        argv = ["sample2", "--epsilon", "0.5", "--m", "1", "--c", "10", "--h", "1", "--alpha", "0.5",
                "--in", "alpha-mixed:n=100000,alpha=0.5,pbig=10,small=1", "--confidence-scale", "1e-9"]
        out = tmp_path / "r.json"
        assert main(argv + ["--seed", "4", "--trials", "3", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["trials"]
        for seed, row in zip((4, 5, 6), rows, strict=True):
            assert main(argv + ["--seed", str(seed), "--trials", "1", "--out", str(out)]) == 0
            assert row == json.loads(out.read_text())


class TestArgparse:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "schedsketch.cli", "gen", "--family", "chain",
             "--m", "1", "--q", "1", "--h", "1", "--out", str(tmp_path / "i.txt")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0

    def test_a_named_command_builds_one_subparser(self, monkeypatch, capsys):
        made = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            made.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        assert main(["stream3", "--epsilon", "0.3", "--m", "1", "--c", "2", "--h", "1",
                     "--n", "100", "--in", "alpha-mixed:n=100,alpha=0.5,c=2,pbig=10"]) == 0
        assert made == ["stream3"]
        assert json.loads(capsys.readouterr().out)["algorithm"] == "stream3"

    @pytest.mark.parametrize("cmd", COMMANDS)
    @pytest.mark.parametrize("tail", [["-h"], [], ["--bogus"]], ids=["help", "missing", "unrecognized"])
    def test_one_command_parser_prints_the_full_parsers_text(self, cmd, tail, capsys):
        def text(parser):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([cmd, *tail])
            out = capsys.readouterr()
            return exc.value.code, out.out, out.err

        full, one = text(build_parser()), text(build_parser(cmd))
        assert one == full
        assert full[1 if tail == ["-h"] else 2]  # the case printed something


_STREAM1 =["stream1", "--epsilon", "0.3", "--m", "1", "--c", "1", "--h", "2", "--in"]
_SCHEDULE = ["schedule", "--sks", "{result}", "--in", "{inst}", "--m", "1", "--out", "{tmp}/s.csv"]
_ORACLE_SIDECAR = ["oracle", "list", "--in", "{tmp}/bad.txt"]
_BENCH_SIDECAR = ["bench", "--algo", "stream1", "--epsilon", "0.3", "--m", "1", "--c", "4", "--h", "2",
                  "--in", "{tmp}/bad.txt"]
# case -> (argv, exit code, text of the --sks result file, text of {tmp}/bad.txt's .meta.json sidecar)
MALFORMED_INPUTS = {
    "spec value not an integer": (_STREAM1 + ["chain:m=x,q=1,h=2"], 2, None, None),
    "spec shape not integers": (_STREAM1 + ["layered:shape=3/x,c=3,m=1"], 2, None, None),
    "spec value not a float": (_STREAM1 + ["chain:m=1,q=1,h=2,alpha=x"], 2, None, None),
    "spec key missing": (_STREAM1 + ["chain:m=1,q=1"], 2, None, None),
    "spec without keys": (_STREAM1 + ["chain:"], 2, None, None),
    "spec key unknown": (_STREAM1 + ["chain:m=1,q=1,h=2,bogus=3"], 2, None, None),
    "implicit chain key missing": (
        ["sample1", "--epsilon", "0.3", "--m", "1", "--c", "1", "--h", "2", "--in", "chain:q=1,h=2"], 2, None, None
    ),
    "implicit chain key unknown": (
        ["sample1", "--epsilon", "0.3", "--m", "1", "--c", "1", "--h", "2", "--in", "chain:m=1,q=1,h=2,bogus=3"],
        2, None, None
    ),
    "implicit alpha-mixed key unknown": (
        ["sample2", "--epsilon", "0.3", "--m", "1", "--c", "2", "--h", "1", "--n", "100",
         "--in", "alpha-mixed:n=100,alpha=0.5,pbig=10,small=1,bogus=1"], 2, None, None
    ),
    "implicit alpha-mixed key missing": (
        ["sample2", "--epsilon", "0.3", "--m", "1", "--c", "2", "--h", "1", "--n", "100",
         "--in", "alpha-mixed:n=100,alpha=0.5,small=1"], 2, None, None
    ),
    "implicit alpha-mixed pbig past int64": (
        ["sample2", "--epsilon", "0.3", "--m", "1", "--c", "2", "--h", "1", "--n", "100",
         "--in", "alpha-mixed:n=100,alpha=0.5,pbig=9223372036854775808,small=1"], 3, None, None
    ),
    "implicit chain n past int64": (
        ["sample1", "--epsilon", "0.5", "--m", "1", "--c", "10", "--h", "3",
         "--in", "chain:m=10000000000,q=10000000000,h=3"], 2, None, None
    ),
    "implicit chain n 2**63 - 1": (
        ["sample1", "--epsilon", "0.5", "--m", "1", "--c", "1", "--h", "1", "--confidence-scale", "1e-15",
         "--in", "chain:m=1,q=9223372036854775807,h=1"], 2, None, None
    ),
    "implicit alpha-mixed n past int64": (
        ["sample2", "--epsilon", "0.5", "--m", "1", "--c", "2", "--h", "1", "--alpha", "0.5", "--confidence-scale",
         "1e-15", "--in", "alpha-mixed:n=9223372036854775808,alpha=0.5,c=2,pbig=10,small=1"], 2, None, None
    ),
    "implicit chain counts below 1": (
        ["sample1", "--epsilon", "0.3", "--m", "1", "--c", "1", "--h", "3", "--in", "chain:m=-1,q=-1,h=3"], 2, None, None
    ),
    "implicit alpha-mixed alpha above 1": (
        ["sample2", "--epsilon", "0.3", "--m", "1", "--in", "alpha-mixed:n=10,alpha=2,c=2,pbig=10,small=1"], 2, None, None
    ),
    "spec alpha nan": (["stream2", "--epsilon", "0.3", "--m", "1", "--in", "alpha-mixed:n=10,alpha=nan,c=2,pbig=10"],
                       2, None, None),
    "spec alpha inf": (["stream2", "--epsilon", "0.3", "--m", "1", "--in", "alpha-mixed:n=10,alpha=inf,c=2,pbig=10"],
                       2, None, None),
    "spec alpha above 1": (["stream2", "--epsilon", "0.3", "--m", "1", "--in", "alpha-mixed:n=10,alpha=2,c=2,pbig=10"],
                           2, None, None),
    "spec alpha-mixed c 0": (
        ["stream2", "--epsilon", "0.3", "--m", "1", "--in", "alpha-mixed:n=10,alpha=0.5,c=0,pbig=10"], 2, None, None
    ),
    "gen alpha nan": (["gen", "--family", "alpha-mixed", "--n", "10", "--alpha", "nan", "--out", "{tmp}/g.txt"],
                      2, None, None),
    "gen c 0": (["gen", "--family", "layered", "--shape", "3/3", "--c", "0", "--out", "{tmp}/g.txt"], 2, None, None),
    "gen shape not integers": (["gen", "--family", "layered", "--shape", "3/x", "--out", "{tmp}/g.txt"], 2, None, None),
    "result not JSON": (_SCHEDULE, 3, "not json", None),
    "result a JSON list": (_SCHEDULE, 3, "[6, 12]", None),
    "result without sks": (_SCHEDULE, 3, '{"A": 12}', None),
    "result sks not a list": (_SCHEDULE, 3, '{"sks": 12}', None),
    "result time not an integer": (_SCHEDULE, 3, '{"sks": ["x"]}', None),
    "result times decreasing": (_SCHEDULE, 3, '{"sks": [5, 3]}', None),
    "result time past int64": (_SCHEDULE, 3, '{"sks": [1, 9223372036854775808]}', None),
    "result time negative": (_SCHEDULE, 3, '{"sks": [-5]}', None),
    "oracle m 0": (["oracle", "exact", "--m", "0", "--in", "{inst}"], 2, None, None),
    "oracle m 0 with a sidecar m": (["oracle", "list", "--m", "0", "--in", "{tmp}/side.txt"], 2, None, None),
    "sidecar not JSON": (_ORACLE_SIDECAR, 3, None, '{"m": '),
    "sidecar byte that is no UTF-8": (_ORACLE_SIDECAR, 3, None, b'{"m": \xff}'),
    "sidecar a JSON list": (_ORACLE_SIDECAR, 3, None, "[1, 2]"),
    "sidecar m not an integer": (_ORACLE_SIDECAR, 3, None, '{"m": "x"}'),
    "sidecar m 0": (_ORACLE_SIDECAR, 3, None, '{"m": 0}'),
    "sidecar cstar a string": (_BENCH_SIDECAR, 3, None, '{"m": 1, "cstar": "x"}'),
    "sidecar cstar null": (_BENCH_SIDECAR, 3, None, '{"m": 1, "cstar": null}'),
    "sidecar cstar a list": (_BENCH_SIDECAR, 3, None, '{"m": 1, "cstar": [1]}'),
    "sidecar cstar negative": (_BENCH_SIDECAR, 3, None, '{"m": 1, "cstar": -3}'),
    "sidecar cstar true": (_BENCH_SIDECAR, 3, None, '{"m": 1, "cstar": true}'),
    "sidecar cstar a numeral string": (_BENCH_SIDECAR, 3, None, '{"m": 1, "cstar": "12"}'),
    "stream1 declared n differs": (
        ["stream1", "--epsilon", "0.3", "--m", "1", "--c", "2", "--h", "2", "--n", "5", "--in", "{inst}"], 3, None, None
    ),
    "stream2 arcs without jobs": (["stream2", "--epsilon", "0.3", "--m", "1", "--in", "{tmp}/arcs.txt"], 3, None, None),
    "stream2 declared n differs": (
        ["stream2", "--epsilon", "0.3", "--m", "1", "--n", "5", "--in", "{inst}"], 3, None, None
    ),
    "threads not an integer": (
        ["sample1", "--epsilon", "0.3", "--m", "1", "--c", "2", "--h", "2", "--trials", "2", "--in", "{inst}"],
        2, None, None
    ),
}
# case -> environment variables set for it
MALFORMED_ENV = {"threads not an integer": {"SCHEDSKETCH_THREADS": "x"}}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_with_one_error_line(case, tmp_path, capsys, monkeypatch):
    """A malformed generator spec, result file, machine, worker or job count: exit 2 or 3, one error line, no traceback."""
    argv, code, result_text, sidecar_text = MALFORMED_INPUTS[case]
    for name, value in MALFORMED_ENV.get(case, {}).items():
        monkeypatch.setenv(name, value)
    inst, result, sidecar = tmp_path / "inst.txt", tmp_path / "r.json", tmp_path / "bad.txt.meta.json"
    for path in (inst, tmp_path / "side.txt", tmp_path / "bad.txt"):
        path.write_text("# sched-stream v1\nJ 1 1 1\nJ 2 2 2\nA 1 2\n")
    (tmp_path / "side.txt.meta.json").write_text('{"m": 2}')  # `read_instance` takes m from here
    if sidecar_text is not None:
        sidecar.write_bytes(sidecar_text if isinstance(sidecar_text, bytes) else sidecar_text.encode())
    (tmp_path / "arcs.txt").write_text("A 1 2\n")
    result.write_text(result_text or "{}")
    assert main([arg.format(tmp=tmp_path, inst=inst, result=result) for arg in argv]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if result_text is not None:
        assert err.startswith(f"error: {result}: ")
    if sidecar_text is not None:
        assert err.startswith(f"error: {sidecar}: ")
