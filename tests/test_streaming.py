"""One-pass streaming algorithms: traced values, contracts, invariants."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schedsketch as ss
from conftest import SingleUse, random_instance
from schedsketch import fileio, model
from schedsketch.streaming import STREAMING_ALGORITHMS


def P(**kw):
    return ss.AlgoParams(**kw)


class TestStreamKnown:
    def test_six_unit_jobs(self):
        # hand trace: k=0, rp0=1, A_1 = 6/2 = 3, A = 3 + 1
        jobs = [ss.Job(i, 1, 1) for i in range(1, 7)]
        rep = ss.stream_known(SingleUse(jobs), P(epsilon=0.3, m=2, c=1, h=1))
        assert rep.A == 4
        assert rep.schedule_sketch.times == (4,)
        assert rep.sketch_node_count == 1
        assert rep.update_count == 6
        assert rep.samples_drawn == 0

    def test_single_unit_job(self):
        rep = ss.stream_known([ss.Job(1, 1, 1)], P(epsilon=0.3, m=1, c=1, h=1))
        assert rep.A == 2  # floor(1) + c

    def test_mixed_buckets_hand_trace(self):
        # delta=0.2: bucket of 2 is 3 (1.2^3 <= 2 < 1.2^4), rp pinned to c=2;
        # bucket of 1 is 0 with rp 1.2; A_1 = 1.2 + 3*2 = 7.2 -> A = 7 + 2
        b = Fraction(1) + Fraction(0.2)
        assert b**3 <= 2 < b**4
        jobs = [ss.Job(1, 1, 1), ss.Job(2, 2, 1), ss.Job(3, 2, 1), ss.Job(4, 2, 1)]
        rep = ss.stream_known(jobs, P(epsilon=0.6, m=1, c=2, h=1))
        assert rep.A == 9

    def test_empty_depth_levels_still_pay(self):
        # depth 2 of 3 is empty; the literal sum still adds +c for it
        jobs = [ss.Job(1, 1, 1), ss.Job(2, 1, 3)]
        rep = ss.stream_known(jobs, P(epsilon=0.3, m=1, c=1, h=3))
        assert rep.A == (1 + 1) + (0 + 1) + (1 + 1)
        tight = ss.stream_known(jobs, P(epsilon=0.3, m=1, c=1, h=3), tight=True)
        assert tight.A == rep.A - 1
        assert tight.schedule_sketch.times[0] == tight.schedule_sketch.times[1]

    def test_contract_errors(self):
        with pytest.raises(ss.InputContractError):
            ss.stream_known([ss.Job(1, 1)], P(epsilon=0.3, m=1, c=1, h=1))  # no depth
        with pytest.raises(ss.InputContractError):
            ss.stream_known([ss.Job(1, 1, 2)], P(epsilon=0.3, m=1, c=1, h=1))  # depth > h
        with pytest.raises(ss.InputContractError):
            ss.stream_known([ss.Job(1, 3, 1)], P(epsilon=0.3, m=1, c=2, h=1))  # p > c
        with pytest.raises(ss.InputContractError):
            ss.stream_known([], P(epsilon=0.3, m=1, c=1, h=1))  # empty

    def test_grid_size_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            inst = random_instance(rng)
            c, h = int(inst.p.max()), inst.height
            rep = ss.stream_known(inst.jobs(), P(epsilon=0.3, m=inst.m, c=c, h=h))
            k = ss.buckets_for(0.1).index(c)
            assert rep.sketch_node_count <= h * (k + 1)


class TestStreamUnknown:
    def test_vee_dag_hand_trace(self):
        evs = [ss.Job(1, 1), ss.Job(2, 1), ss.Job(3, 1), ss.Arc(1, 3), ss.Arc(2, 3)]
        rep = ss.stream_unknown(SingleUse(evs), P(epsilon=0.3, m=1))
        assert rep.A == 5  # (floor(2)+1) + (floor(1)+1)
        assert rep.extras["h_discovered"] == 2
        assert rep.extras["c_discovered"] == 1
        assert rep.update_count == 5

    def test_no_arcs_matches_known_mode(self):
        jobs = [ss.Job(i, 1) for i in range(1, 8)]
        ru = ss.stream_unknown(jobs, P(epsilon=0.3, m=2))
        rk = ss.stream_known([ss.Job(i, 1, 1) for i in range(1, 8)], P(epsilon=0.3, m=2, c=1, h=1))
        assert ru.A == rk.A

    def test_cycle_suspected_on_back_arc(self):
        evs = [ss.Job(1, 1), ss.Job(2, 1), ss.Job(3, 1), ss.Arc(1, 3), ss.Arc(3, 1)]
        with pytest.raises(ss.CycleSuspicionError):
            ss.stream_unknown(evs, P(epsilon=0.3, m=1))

    @pytest.mark.parametrize("mode", ["stream2", "stream4"])
    def test_self_loop_is_a_suspected_cycle(self, mode, tmp_path):
        # a 2-job stream has room for depth 2, so only the self-loop check catches it
        path = tmp_path / "inst.txt"
        path.write_text("J 1 3\nJ 2 3\nA 1 1\n")
        for source in ([ss.Job(1, 1), ss.Job(2, 1), ss.Arc(1, 1)], fileio.iter_chunks(str(path))):
            with pytest.raises(ss.CycleSuspicionError, match=r"self-loop arc \(1 -> 1\) forms a cycle"):
                STREAMING_ALGORITHMS[mode](source, P(epsilon=0.3, m=1, n=2))

    def test_unseen_job_id_in_arc(self):
        evs = [ss.Job(1, 1), ss.Arc(1, 9)]
        with pytest.raises(ss.InputContractError):
            ss.stream_unknown(evs, P(epsilon=0.3, m=1))

    def test_job_after_arc_rejected(self):
        evs = [ss.Job(1, 1), ss.Job(2, 1), ss.Arc(1, 2), ss.Job(3, 1)]
        with pytest.raises(ss.InputContractError):
            ss.stream_unknown(evs, P(epsilon=0.3, m=1))

    def test_equivalence_with_known_when_extremes_match(self):
        # p_min = 1 and p_max = c: identical A on 100 random instances
        rng = np.random.default_rng(5)
        for _ in range(100):
            inst = random_instance(rng, n_max=10)
            if inst.n < 2:
                continue
            c = int(rng.integers(1, 4))
            p = rng.integers(1, c + 1, size=inst.n)
            p[0], p[-1] = 1, c
            inst = ss.Instance(p=p, depth=inst.depth, arcs=inst.arcs, m=inst.m)
            rk = ss.stream_known(inst.jobs(), P(epsilon=0.42, m=inst.m, c=c, h=inst.height))
            ru = ss.stream_unknown(inst.events(with_depth=False), P(epsilon=0.42, m=inst.m))
            assert rk.A == ru.A
            assert rk.schedule_sketch.times == ru.schedule_sketch.times


class TestStreamAlphaKnown:
    def test_no_skips_hand_trace(self):
        # n=4, p in {3,4}: delta=0.1, u(3)=11 (rp=1.1^12), u(4)=14=u_hi (rp=4)
        b = Fraction(1) + Fraction(0.1)
        assert b**11 <= 3 < b**12 and b**14 <= 4 < b**15
        jobs = [ss.Job(1, 3, 1), ss.Job(2, 4, 1), ss.Job(3, 3, 1), ss.Job(4, 4, 1)]
        rep = ss.stream_alpha_known(jobs, P(epsilon=0.3, m=1, c=2, h=1, n=4))
        a1 = 2 * float(b**12) + 2 * 4.0
        assert rep.A == int(a1) + 4 + 1  # floor(A_1) + p_max + ceil(p_max/n)
        assert rep.A == 19
        assert rep.extras["counted"] == 4

    def test_small_job_skipped(self):
        big = 10**6
        jobs = [ss.Job(1, big, 1)] + [ss.Job(j, 2, 1) for j in range(2, 10)] + [ss.Job(10, 1, 1)]
        rep = ss.stream_alpha_known(jobs, P(epsilon=0.3, m=1, c=1, h=1, n=10))
        # everything after the big job is below p_max/n^2 = 10^4 and skipped
        assert rep.extras["counted"] == 1

    def test_single_job_formula_forced(self):
        rep = ss.stream_alpha_known([ss.Job(1, 5, 1)], P(epsilon=0.3, m=1, c=1, h=1, n=1))
        assert rep.A == 5 + 5 + 5

    def test_sketch_times_pad_every_depth(self):
        jobs = [ss.Job(1, 1, 1), ss.Job(2, 1, 2)]
        rep = ss.stream_alpha_known(jobs, P(epsilon=0.3, m=1, c=1, h=2, n=2))
        # per depth: floor(1) + 1 + ceil(1/2) = 3; A adds the tail once
        assert rep.schedule_sketch.times == (3, 6)
        assert rep.A == (1 + 1) + (1 + 1) + 1

    def test_declared_n_enforced(self):
        with pytest.raises(ss.InputContractError):
            ss.stream_alpha_known([ss.Job(1, 1, 1)], P(epsilon=0.3, m=1, c=1, h=1, n=3))


class TestStreamAlphaUnknown:
    def test_chain_hand_trace(self):
        evs = [ss.Job(1, 1), ss.Job(2, 1), ss.Job(3, 1), ss.Arc(1, 2), ss.Arc(2, 3)]
        rep = ss.stream_alpha_unknown(SingleUse(evs), P(epsilon=0.3, m=1, n=3))
        assert rep.A == 3 * (1 + 1) + 1
        assert rep.schedule_sketch.times == (3, 6, 9)

    def test_no_arcs_equals_alpha_known(self):
        jobs_plain = [ss.Job(j, 2) for j in range(1, 6)]
        jobs_depth = [ss.Job(j, 2, 1) for j in range(1, 6)]
        ru = ss.stream_alpha_unknown(jobs_plain, P(epsilon=0.3, m=2, n=5))
        rk = ss.stream_alpha_known(jobs_depth, P(epsilon=0.3, m=2, c=1, h=1, n=5))
        assert ru.A == rk.A

    def test_differs_from_unknown_by_tail_only(self):
        # same DAG, no pruning/skipping: the alpha variant adds ceil(p_max/n)
        evs = lambda: [ss.Job(1, 1), ss.Job(2, 1), ss.Job(3, 1), ss.Arc(1, 3), ss.Arc(2, 3)]
        r2 = ss.stream_unknown(evs(), P(epsilon=0.3, m=1))
        r4 = ss.stream_alpha_unknown(evs(), P(epsilon=0.3, m=1, n=3))
        assert r4.A == r2.A + 1  # ceil(1/3)

    def test_c_discovered_from_top_alpha_jobs(self):
        # the bottom 75% of jobs lie far below the top 25%, which are within
        # a factor 4; c comes from the top alpha*n jobs, not from p_max/p_min
        inst = ss.alpha_mixed(n=20000, alpha=0.25, c=4, p_big=10**9, m=4, h=3, seed=3)
        rep = ss.stream_alpha_unknown(inst.events(with_depth=False), P(epsilon=0.05, m=4, n=20000, alpha=0.25))
        assert rep.extras["c_discovered"] == 5
        assert rep.guarantee_condition_met


@pytest.mark.parametrize("mode", ["stream3", "stream4"])
def test_tight_keeps_room_for_depths_of_skipped_jobs(mode):
    # depth 1 holds only jobs below p_max/n^2, so the capped sketch gives it
    # zero load; under tight it still needs ceil(p_max/n), which covers them
    p, depth = [1, 1, 10**6], [1, 1, 2]
    if mode == "stream3":
        events = [ss.Job(j + 1, p[j], depth[j]) for j in range(3)]
        rep = ss.stream_alpha_known(events, P(epsilon=0.3, m=1, c=1, h=2, n=3), tight=True)
    else:
        events = [ss.Job(j + 1, p[j]) for j in range(3)] + [ss.Arc(1, 3), ss.Arc(2, 3)]
        rep = ss.stream_alpha_unknown(events, P(epsilon=0.3, m=1, n=3), tight=True)
    assert rep.schedule_sketch.times[0] == 333334
    sched = ss.sketch_to_schedule(rep.schedule_sketch, p, depth, 1)
    assert sched.makespan <= rep.schedule_sketch.times[-1]


@pytest.mark.parametrize("mode", ["stream3", "stream4"])
def test_new_maxima_rarely_need_exact_powers(mode, monkeypatch):
    # every job of an ascending-p stream is a new running maximum and moves
    # the cutoff floor_log(p_max, n^2); the float estimate should settle
    # nearly all of them without exact power comparisons
    calls = []
    pow_cmp = ss.GeometricBuckets.pow_cmp

    def counted(*args):
        calls.append(args)
        return pow_cmp(*args)

    monkeypatch.setattr(ss.GeometricBuckets, "pow_cmp", counted)
    n = 2000
    p = [int(1000 * 1.01**j) for j in range(n)]
    assert all(a < b for a, b in zip(p, p[1:]))
    if mode == "stream3":
        jobs = [ss.Job(j + 1, p[j], 1) for j in range(n)]
        rep = ss.stream_alpha_known(jobs, P(epsilon=0.05, m=1, c=p[-1], h=1, n=n))
    else:
        jobs = [ss.Job(j + 1, p[j]) for j in range(n)]
        rep = ss.stream_alpha_unknown(jobs, P(epsilon=0.05, m=1, n=n))
    assert rep.extras["p_max"] == p[-1]
    assert len(calls) <= 5


class TestRoundedValues:
    @settings(max_examples=200, deadline=None)
    @given(
        p=st.integers(min_value=1, max_value=10**4),
        c_extra=st.integers(min_value=0, max_value=50),
        delta=st.sampled_from([0.5, 0.1, 0.025]),
    )
    def test_rounding_brackets_true_time(self, p, c_extra, delta):
        # rp_u is between p and (1+delta)*p for every job in bucket u
        gb = ss.buckets_for(delta)
        top = p + c_extra  # pinned maximum is at least the job itself
        u = gb.index(p)
        u_hi = gb.index(top)
        rp = ss.RoundedValues(gb, 0, u_hi, float(top))
        v = rp.value(u)
        assert v >= p * (1 - 1e-12)
        assert v <= (1 + delta) * p * (1 + 1e-12)

    def test_out_of_range_bucket_rejected(self):
        gb = ss.buckets_for(0.1)
        rp = ss.RoundedValues(gb, 0, 5, 9.0)
        with pytest.raises(ss.InputContractError):
            rp.value(6)


class TestSketchMonotonicity:
    def test_times_strictly_increase_and_match_a(self, small_corpus):
        for inst, _ in small_corpus[:60]:
            h = inst.height
            c = int(inst.p.max())
            rep1 = ss.stream_known(inst.jobs(), P(epsilon=0.3, m=inst.m, c=c, h=h))
            assert all(a < b for a, b in zip(rep1.schedule_sketch.times, rep1.schedule_sketch.times[1:]))
            assert rep1.schedule_sketch.times[-1] == rep1.A
            rep2 = ss.stream_unknown(inst.events(with_depth=False), P(epsilon=0.3, m=inst.m))
            assert rep2.schedule_sketch.times[-1] == rep2.A
            rep3 = ss.stream_alpha_known(inst.jobs(), P(epsilon=0.3, m=inst.m, c=c, h=h, n=inst.n))
            tail = -(-int(inst.p.max()) // inst.n)
            assert rep3.schedule_sketch.times[-1] == rep3.A + (h - 1) * tail


class TestConditionalQuality:
    def test_condition_implies_sketch_end_within_ratio(self):
        # chain with q=10 satisfies every variant's machine bound; the whole
        # sketch budget t_h then stays within (1+eps) of the optimum
        inst = ss.chain(m=200, q=10, h=3)
        cstar = inst.meta["cstar"]
        n, h, c = inst.n, 3, 1
        reps = [
            ss.stream_known(inst.jobs(), P(epsilon=0.3, m=200, c=c, h=h)),
            ss.stream_unknown(inst.events(with_depth=False), P(epsilon=0.3, m=200)),
            ss.stream_alpha_known(inst.jobs(), P(epsilon=0.3, m=200, c=c, h=h, n=n)),
            ss.stream_alpha_unknown(inst.events(with_depth=False), P(epsilon=0.3, m=200, n=n)),
        ]
        for rep in reps:
            assert rep.guarantee_condition_met
            assert rep.schedule_sketch.times[-1] <= (1 + 0.3) * cstar


class TestSketchPersistence:
    def test_final_sketch_serializes(self):
        from schedsketch.sketch import sketch_from_json, sketch_to_json

        inst = ss.chain(m=2, q=3, h=2)
        rep = ss.stream_unknown(inst.events(with_depth=False), P(epsilon=0.3, m=2))
        text = sketch_to_json(rep.extras["input_sketch"])
        back = sketch_from_json(text)
        assert list(back.entries()) == list(rep.extras["input_sketch"].entries())


def _ascending_instance() -> ss.Instance:
    """40 jobs with ascending p; job j's one parent is j // 2."""
    n = 40
    p = np.array([int(1.6**j) + j for j in range(1, n + 1)], dtype=np.int64)
    arcs = [(j // 2, j) for j in range(2, n + 1)]
    return ss.Instance(p=p, depth=ss.compute_depths(arcs, n), arcs=arcs, m=2)


CHUNK_INSTANCES = {
    "layered": lambda: ss.layered([30, 25, 20], c=9, m=3, seed=4),
    "random_dag": lambda: ss.random_dag(n=60, h=4, density=0.2, m=2, c=50, seed=5),
    "alpha_mixed": lambda: ss.alpha_mixed(n=80, alpha=0.25, c=3, p_big=10**6, m=2, h=3, seed=6),
    "ascending": _ascending_instance,
}


def _run_summary(rep: ss.RunReport) -> dict:
    """Every field a stream run reports, with the final sketch and depth table in plain form."""
    ex = rep.extras
    out = {
        "A": rep.A,
        "times": rep.schedule_sketch.times,
        "sketch_nodes": rep.sketch_node_count,
        "update_count": rep.update_count,
        "guarantee": rep.guarantee_condition_met,
        "sketch_json": ss.sketch_to_json(ex["input_sketch"]),
    }
    for key in ("n", "p_max", "p_min", "c_discovered", "h_discovered", "peak_node_count", "counted"):
        out[key] = ex.get(key)
    if "depth_table" in ex:
        out["depths"] = ex["depth_table"].depths_array(ex["n"]).tolist()
    return out


@pytest.mark.parametrize("name", sorted(CHUNK_INSTANCES))
def test_chunk_and_event_input_agree(name, tmp_path, monkeypatch):
    """All four modes on int64 chunks and on single events report the same run."""
    monkeypatch.setattr(fileio, "BLOCK_CHARS", 100)  # many chunks, cut inside lines
    monkeypatch.setattr(model, "CHUNK_ROWS", 7)  # and inside depths
    inst = CHUNK_INSTANCES[name]()
    c, h, n = int(inst.p.max()), inst.height, inst.n
    for mode, fn in STREAMING_ALGORITHMS.items():
        given = mode in ("stream1", "stream3")
        path = str(tmp_path / f"{name}-{given}.txt")
        fileio.write_instance(inst, path, with_depths=given)
        kwargs = {"stream1": dict(c=c, h=h), "stream2": {},
                  "stream3": dict(c=c, h=h, n=n, alpha=0.25), "stream4": dict(n=n, alpha=0.25)}[mode]
        for eps in (0.3, 0.05):
            params = P(epsilon=eps, m=inst.m, **kwargs)
            for tight in (False, True):
                want = _run_summary(fn(inst.events(with_depth=given), params, tight=tight))
                assert _run_summary(fn(fileio.iter_chunks(path), params, tight=tight)) == want
                assert _run_summary(fn(fileio.iter_stream(path), params, tight=tight)) == want
                assert _run_summary(fn(inst.chunks(with_depth=given), params, tight=tight)) == want


@pytest.mark.parametrize("block", [8, 1 << 20])
@pytest.mark.parametrize(
    "mode,text,message",
    [
        ("stream1", "J 1 1 1\nJ 2 1 5\nJ 3 x 1\n", "job 2 has depth 5 > h=1"),
        ("stream2", "J 1 1\nJ 1 2\nJ 2 x\n", "duplicate job id 1 in stream"),
        ("stream2", "J 1 1\nJ 2 1\nA 1 7\nA 2 x\n", "arc references unseen job id 7"),
    ],
)
def test_engine_error_on_an_earlier_line_wins(mode, text, message, block, tmp_path, monkeypatch):
    """Rows before a bad line reach the engine first, through both input routes."""
    monkeypatch.setattr(fileio, "BLOCK_CHARS", block)
    path = tmp_path / "inst.txt"
    path.write_text(text)
    params = P(epsilon=0.3, m=1, c=1, h=1) if mode == "stream1" else P(epsilon=0.3, m=1)
    for source in (fileio.iter_chunks, fileio.iter_stream):
        with pytest.raises(ss.InputContractError) as err:
            STREAMING_ALGORITHMS[mode](source(str(path)), params)
        assert str(err.value) == message
