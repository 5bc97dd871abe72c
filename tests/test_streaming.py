"""One-pass streaming algorithms: traced values, contracts, invariants."""

import gc
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schedsketch as ss
from conftest import SingleUse, random_instance
from per_event import LazySketch, stream_per_event
from schedsketch import core, fileio, model, streaming
from schedsketch.sketch import DepthColumns, TreeSketch, bucket_loads
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


def _columns(entries: list) -> tuple:
    """(u, d, weight) rows as the columns `bucket_loads` takes."""
    u, d, weight = zip(*entries) if entries else ((), (), ())
    return np.array(u, dtype=np.int64), np.array(d, dtype=np.int64), np.array(weight, dtype=np.float64)


class TestBucketLoads:
    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=1, max_value=4),
                st.one_of(st.integers(min_value=1, max_value=10**6), st.floats(min_value=0.0, max_value=1e9)),
            ),
            max_size=30,
        ),
        top=st.integers(min_value=1, max_value=10**12),
        delta=st.sampled_from([0.5, 0.1, 0.025]),
    )
    def test_equals_the_per_entry_sum(self, entries, top, delta):
        # each entry adds weight * rounded value to its depth, in the order given, bit for bit
        gb = ss.buckets_for(delta)
        want = [0.0] * 4
        for u, d, weight in entries:
            want[d - 1] += weight * (float(top) if u == 40 else gb.base ** (u + 1))
        loads = bucket_loads(*_columns(entries), gb, 0, 40, top, 4)
        assert loads.dtype == np.float64
        assert [x.hex() for x in loads.tolist()] == [x.hex() for x in want]

    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.dictionaries(
            st.tuples(st.integers(min_value=-3, max_value=12), st.integers(min_value=1, max_value=4)),
            st.one_of(st.integers(min_value=1, max_value=10**6), st.floats(min_value=0.0, max_value=1e9)),
            min_size=1,
            max_size=30,
        ),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_equals_the_reference_on_sorted_and_shuffled_rows(self, cells, seed):
        """Rows in (u, d) order give the reference's loads bit for bit, any order gives them to rounding, and
        each run of equal u pays one power."""
        gb, top, h = ss.buckets_for(0.1), 10**7, 4
        us = [u for u, _ in cells]
        u_lo, u_hi = min(us), max(us)
        want = LazySketch(cells).depth_loads(gb, u_lo, u_hi, top, h)
        powers = []

        class Base(float):
            def __pow__(self, e):
                powers.append(e)
                return float(self) ** e

        rows = sorted((u, d, weight) for (u, d), weight in cells.items())
        shuffled = [rows[i] for i in np.random.default_rng(seed).permutation(len(rows))]
        for order in (rows, shuffled):
            powers.clear()
            loads = bucket_loads(*_columns(order), SimpleNamespace(base=Base(gb.base)), u_lo, u_hi, top, h)
            runs = [u for i, (u, _, _) in enumerate(order) if u != u_hi and (i == 0 or order[i - 1][0] != u)]
            assert powers == [u + 1 for u in runs]
            if order is rows:
                assert loads.tobytes() == want.tobytes()
            else:
                assert loads.tolist() == pytest.approx(want.tolist(), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.integers(min_value=1, max_value=10**4),
        c_extra=st.integers(min_value=0, max_value=50),
        delta=st.sampled_from([0.5, 0.1, 0.025]),
    )
    def test_rounding_brackets_true_time(self, p, c_extra, delta):
        # the rounded value of p's bucket is between p and (1+delta)*p; the top bucket is pinned
        gb = ss.buckets_for(delta)
        top = p + c_extra  # pinned maximum is at least the job itself
        u, u_hi = gb.index(p), gb.index(top)
        v = bucket_loads(*_columns([(u, 1, 1)]), gb, 0, u_hi, top, 1)[0]
        assert v >= p * (1 - 1e-12)
        assert v <= (1 + delta) * p * (1 + 1e-12)
        assert bucket_loads(*_columns([(u_hi, 1, 3)]), gb, 0, u_hi, top, 1)[0] == 3.0 * top

    @pytest.mark.parametrize(
        "u_lo,u_hi,u,message",
        [(0, 5, 6, r"^bucket 6 outside \[0, 5\]$"), (2, 5, 1, r"^bucket 1 outside \[2, 5\]$"),
         (3, 2, 3, r"^empty bucket range \[3, 2\]$")],
    )
    def test_out_of_window_bucket_rejected(self, u_lo, u_hi, u, message):
        gb = ss.buckets_for(0.1)
        with pytest.raises(ss.InputContractError, match=message):
            bucket_loads(*_columns([(u_hi, 1, 1), (u, 1, 1)]), gb, u_lo, u_hi, 9, 1)


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
        out["depths"] = ex["depth_table"].depths_array().tolist()
    return out


@pytest.mark.parametrize("name", sorted(CHUNK_INSTANCES))
def test_chunk_and_event_input_agree(name, tmp_path, monkeypatch):
    """All four modes on int64 chunks and on single events report what the per-event reference does."""
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
                want = _run_summary(stream_per_event(inst.events(with_depth=given), params, mode, tight))
                assert _run_summary(fn(fileio.iter_chunks(path), params, tight=tight)) == want
                assert _run_summary(fn(fileio.iter_stream(path), params, tight=tight)) == want
                assert _run_summary(fn(inst.chunks(with_depth=given), params, tight=tight)) == want


@pytest.mark.parametrize("block", [8, 1 << 20])
@pytest.mark.parametrize(
    "mode,text,message,row",
    [
        ("stream1", "J 1 1 1\nJ 2 1 5\nJ 3 x 1\n", "job 2 has depth 5 > h=1", ("J", 1)),
        ("stream2", "J 1 1\nJ 1 2\nJ 2 x\n", "duplicate job id 1 in stream", ("J", 1)),
        ("stream2", "J 1 1\nJ 2 1\nA 1 7\nA 2 x\n", "arc references unseen job id 7", ("A", 0)),
        ("stream4", "J 1 1\nJ 2 1\nJ 3 1\nA 1 2\nA 3 1\nA 2 x\n",
         "arc (3 -> 1) arrived after 1 was already a source; arc stream is not in topological order", ("A", 1)),
    ],
)
def test_engine_error_on_an_earlier_line_wins(mode, text, message, row, block, tmp_path, monkeypatch):
    """Rows before a bad line reach the engine first, through both input routes; the error names its row."""
    monkeypatch.setattr(fileio, "BLOCK_CHARS", block)
    path = tmp_path / "inst.txt"
    path.write_text(text)
    params = {"stream1": P(epsilon=0.3, m=1, c=1, h=1), "stream4": P(epsilon=0.3, m=1, n=3)}.get(mode, P(epsilon=0.3, m=1))
    for source in (fileio.iter_chunks, fileio.iter_stream):
        with pytest.raises(ss.InputContractError) as err:
            STREAMING_ALGORITHMS[mode](source(str(path)), params)
        assert (str(err.value), err.value.row) == (message, row)


def _outcome(run) -> dict | tuple:
    """A stream run's summary, or the class and message of the error it raised."""
    try:
        return _run_summary(run())
    except Exception as exc:  # compared between the two routes, class and message alike
        return type(exc), str(exc)


def _int64_chunks(events: list, rows: int, lists: bool = False):
    """``events`` as int64 column chunks of at most ``rows`` events (list columns with ``lists``).

    A job chunk carries depths when its first job does.
    """
    wrap = list if lists else np.array
    lo = 0
    while lo < len(events):
        hi = lo + 1
        while hi < len(events) and hi - lo < rows and type(events[hi]) is type(events[lo]):
            hi += 1
        part = events[lo:hi]
        if isinstance(part[0], ss.Arc):
            yield model.ArcChunk(*(wrap(col) for col in zip(*part)))
        else:
            depth = None if part[0].depth is None else wrap([ev.depth for ev in part])
            yield model.JobChunk(wrap([ev.id for ev in part]), wrap([ev.p for ev in part]), depth)
        lo = hi


def _jobs(*ids):
    return [ss.Job(i, i % 5 + 1) for i in ids]


A = ss.Arc
COLUMNAR_CASES = {
    "repeat in one chunk": (_jobs(1, 2, 1), "duplicate job id 1 in stream"),
    "repeat across chunks": (_jobs(1, 2, 3, 2), "duplicate job id 2 in stream"),
    "repeat across ascending chunks": (_jobs(1, 3, 3, 4), "duplicate job id 3 in stream"),
    "repeat after unsorted ids": (_jobs(4, 1, 3, 2, 4), "duplicate job id 4 in stream"),
    "first repeat not the smallest": (_jobs(5, 3, 5, 3), "duplicate job id 5 in stream"),
    # `_Row` skips `Job`'s own checks, so the engine meets p = 0 at its row, in a later chunk of the chunk forms
    "repeat before a later p = 0": (_jobs(1, 2, 1, 3) + [streaming._Row(4, 0)], "duplicate job id 1 in stream"),
    "unseen src": (_jobs(1, 2, 3) + [A(1, 2), A(7, 3)], "arc references unseen job id 7"),
    "unseen dst": (_jobs(1, 2, 3) + [A(1, 2), A(2, 9)], "arc references unseen job id 9"),
    "self-loop on the only job": (_jobs(1) + [A(1, 1)], "self-loop arc (1 -> 1) forms a cycle"),
    "self-loop": (_jobs(1, 2) + [A(1, 1)], "self-loop arc (1 -> 1) forms a cycle"),
    "self-loop on a raised job": (_jobs(1, 2) + [A(1, 2), A(2, 2)], "self-loop arc (2 -> 2) forms a cycle"),
    "self-loop on a source": (_jobs(1, 2) + [A(1, 2), A(1, 1)], "self-loop arc (1 -> 1) forms a cycle"),
    "self-loop on an unseen id": (_jobs(1, 2) + [A(9, 9)], "self-loop arc (9 -> 9) forms a cycle"),
    "unseen end of a late arc": (_jobs(1, 2) + [A(1, 2), A(9, 1)], "arc references unseen job id 9"),
    "job after arcs": (_jobs(1, 2) + [A(1, 2)] + _jobs(3), "job 3 arrived after arc events began"),
    "gap before a job after arcs": (_jobs(1, 3) + [A(1, 3)] + _jobs(2), "job ids must be exactly 1..2; no job has id 2"),
    "gapped ids": (_jobs(10, 3, 7, 1) + [A(1, 3), A(3, 10), A(7, 10)], "job ids must be exactly 1..4; no job has id 2"),
    "unsorted ids": (_jobs(5, 2, 4, 1, 3) + [A(1, 2), A(2, 3), A(4, 3), A(3, 5)], None),
}


def _arc_mode_params(n: int, epsilon: float = 0.3) -> tuple:
    return ("stream2", P(epsilon=epsilon, m=1)), ("stream4", P(epsilon=epsilon, m=1, n=n))


def _arc_mode_inputs(events: list, rows: int) -> dict:
    """The input forms of one event list: the events, and list and int64 column chunks."""
    return {
        "events": lambda: iter(events),
        "list chunks": lambda: _int64_chunks(events, rows, lists=True),
        "int64 chunks": lambda: _int64_chunks(events, rows),
    }


@pytest.mark.parametrize("rows", [1, 2, 7, 64, 256, 65536])
@pytest.mark.parametrize("case", sorted(COLUMNAR_CASES))
def test_columnar_stream2_matches_per_event(case, rows):
    """stream2 and stream4 on events and on list and int64 chunks keep the per-event route's results and errors."""
    events, message = COLUMNAR_CASES[case]
    for mode, params in _arc_mode_params(sum(isinstance(ev, ss.Job) for ev in events)):
        want = _outcome(lambda: stream_per_event(events, params, mode))
        for form, source in _arc_mode_inputs(events, rows).items():
            assert _outcome(lambda: STREAMING_ALGORITHMS[mode](source(), params)) == want, (mode, form)
        if message is None:
            rep = STREAMING_ALGORITHMS[mode](events, params)
            assert isinstance(rep.extras["depth_table"], DepthColumns)
        else:
            assert want[1] == message


@pytest.mark.parametrize("rows", [1, 7])
def test_columnar_stream2_rejects_out_of_order_arcs(rows, monkeypatch):
    """A back arc within one chunk (7 rows) or across chunks (1 row), through `Instance.chunks`."""
    monkeypatch.setattr(model, "CHUNK_ROWS", rows)
    inst = ss.Instance(p=[1, 2, 3], depth=None, arcs=[(1, 2), (2, 3), (3, 1)], m=1)
    for mode, params in _arc_mode_params(3):
        want = _outcome(lambda: stream_per_event(inst.events(with_depth=False), params, mode))
        assert want == (
            ss.CycleSuspicionError,
            "arc (3 -> 1) arrived after 1 was already a source; arc stream is not in topological order",
        )
        assert _outcome(lambda: STREAMING_ALGORITHMS[mode](inst.chunks(with_depth=False), params)) == want


@pytest.mark.parametrize("lists", [False, True])
@pytest.mark.parametrize(
    "ids,p,error",
    [
        ([1, 2], [1, 0], (ss.ParamError, "processing time must be >= 1, got 0")),
        ([1, 2, 1, 3], [1, 1, 1, 0], (ss.InputContractError, "duplicate job id 1 in stream")),
        ([1, 2, 2], [1, 1, 0], (ss.ParamError, "processing time must be >= 1, got 0")),
    ],
)
def test_arc_modes_check_p_at_its_row(ids, p, error, lists):
    """A p below 1 raises at its row: a repeated id before it wins, a repeat on its own row does not."""
    wrap = list if lists else np.array
    stream = [model.JobChunk(wrap(ids), wrap(p), None), model.ArcChunk(wrap([1]), wrap([1]))]
    for mode, params in _arc_mode_params(len(ids)):
        assert _outcome(lambda: stream_per_event(stream, params, mode)) == error
        assert _outcome(lambda: STREAMING_ALGORITHMS[mode](stream, params)) == error


@pytest.mark.parametrize("rows", [1, 256])
def test_arc_modes_reject_arcs_without_jobs(rows):
    """Arcs with no job before them: the first arc's source is unseen, in every input form."""
    events = [A(1, 2), A(2, 3)]
    for mode, params in _arc_mode_params(1):
        want = _outcome(lambda: stream_per_event(events, params, mode))
        assert want == (ss.InputContractError, "arc references unseen job id 1")
        for source in _arc_mode_inputs(events, rows).values():
            assert _outcome(lambda: STREAMING_ALGORITHMS[mode](source(), params)) == want


def test_arc_modes_reject_p_past_int64():
    """An event's p past int64 raises at its row, in the per-event route as well."""
    events = [ss.Job(1, 2**70), ss.Job(2, 1), ss.Job(3, 1), ss.Arc(1, 2)]
    error = (ss.InputContractError, f"processing time {2**70} exceeds 2**63 - 1")
    for mode, params in _arc_mode_params(3):
        assert _outcome(lambda: stream_per_event(events, params, mode)) == error
        for rows in (1, 256):
            assert _outcome(lambda: STREAMING_ALGORITHMS[mode](_int64_chunks(events, rows, lists=True), params)) == error


@pytest.mark.parametrize(
    "arcs,error",
    [
        ([A(1, 2), A(2, 2**70)], (ss.InputContractError, f"arc end {2**70} is outside the int64 range")),
        ([A(-(2**70), 2), A(1, 2)], (ss.InputContractError, f"arc end {-(2**70)} is outside the int64 range")),
        ([A(1, 2), A(2**64, 1)], (ss.InputContractError, f"arc end {2**64} is outside the int64 range")),
        ([A(1, 2), A(1, 1), A(2**70, 2)], (ss.CycleSuspicionError, "self-loop arc (1 -> 1) forms a cycle")),
    ],
)
def test_arc_end_past_int64_is_rejected(arcs, error):
    """An arc end past int64 raises at its row, before the engine checks that row, never `OverflowError`."""
    events = _jobs(1, 2, 3) + arcs
    for mode, params in _arc_mode_params(3):
        assert _outcome(lambda: stream_per_event(events, params, mode)) == error
        for rows in (1, 256):
            assert _outcome(lambda: STREAMING_ALGORITHMS[mode](_int64_chunks(events, rows, lists=True), params)) == error


@pytest.mark.parametrize(
    "stream,error",
    [
        ([ss.Job(1, 1), ss.Job(2**63, 1)], (ss.InputContractError, f"job id {2**63} exceeds 2**63 - 1")),
        ([ss.Job(1, 1), ss.Job(1, 1), ss.Job(2**70, 1)], (ss.InputContractError, "duplicate job id 1 in stream")),
        ([model.JobChunk([1, 2**63], [1, 0], None)], (ss.InputContractError, f"job id {2**63} exceeds 2**63 - 1")),
    ],
)
def test_job_id_past_int64_is_rejected(stream, error):
    """Job ids are held as int64: one past it raises at its row, after the rows before it, before its own p."""
    for mode, params in _arc_mode_params(len(stream)):
        assert _outcome(lambda: STREAMING_ALGORITHMS[mode](stream, params)) == error


BIG = 2**63
PAST_INT64 = {  # field -> (event index, the event carrying a value just past int64, the door's error)
    "job id": (2, ss.Job(BIG, 1, 1), f"job id {BIG} exceeds 2**63 - 1"),
    "p": (2, ss.Job(3, BIG, 1), f"processing time {BIG} exceeds 2**63 - 1"),
    "depth": (2, ss.Job(3, 1, BIG), f"depth {BIG} exceeds 2**63 - 1"),
    "arc src": (4, A(BIG, 3), f"arc end {BIG} is outside the int64 range"),
    "arc dst": (4, A(2, -BIG - 1), f"arc end {-BIG - 1} is outside the int64 range"),
    "numpy job id": (2, ss.Job(np.uint64(BIG), 1, 1), f"job id {BIG} exceeds 2**63 - 1"),
    "numpy p": (2, ss.Job(3, np.uint64(BIG), 1), f"processing time {BIG} exceeds 2**63 - 1"),
}


@pytest.mark.parametrize("earlier", [False, True])
@pytest.mark.parametrize("field", sorted(PAST_INT64))
@pytest.mark.parametrize("mode", sorted(STREAMING_ALGORITHMS))
def test_value_past_int64_raises_at_its_row(mode, field, earlier):
    """Every field past int64 raises at its row in every mode, on events and on list chunks.

    An engine error on an earlier row still wins.
    """
    k, bad, message = PAST_INT64[field]
    events = [ss.Job(1, 1, 1), ss.Job(2, 1, 1), ss.Job(3, 1, 1), A(1, 2), A(2, 3)]
    events[k] = bad
    params = {"stream1": P(epsilon=0.3, m=1, c=1, h=1), "stream2": P(epsilon=0.3, m=1),
              "stream3": P(epsilon=0.3, m=1, c=1, h=1, n=3), "stream4": P(epsilon=0.3, m=1, n=3)}[mode]
    error = (ss.InputContractError, message)
    if earlier and mode in ("stream1", "stream3"):  # a depth past h on the first job
        events[0], error = ss.Job(1, 1, 2), (ss.InputContractError, "job 1 has depth 2 > h=1")
    elif earlier and k == 2:  # a repeated id on the row before
        events[1], error = ss.Job(1, 1, 1), (ss.InputContractError, "duplicate job id 1 in stream")
    elif earlier:  # an unseen id on the arc before
        events[3], error = A(1, 9), (ss.InputContractError, "arc references unseen job id 9")
    for source in (events, _int64_chunks(events, 1, lists=True), _int64_chunks(events, 256, lists=True)):
        assert _outcome(lambda: STREAMING_ALGORITHMS[mode](source, params)) == error


@pytest.mark.parametrize("mode", ["stream1", "stream3"])
def test_given_modes_count_event_lists_by_chunk(mode, monkeypatch):
    """Events enter as int64 chunks of `EVENT_BATCH` jobs, and the counter takes each one."""
    taken = _spy_count(monkeypatch)
    inst = ss.layered([300, 250, 200], c=9, m=3, seed=4)  # p <= 9 < n^2: no cutoff reaches a bucket
    params = P(epsilon=0.3, m=inst.m, c=int(inst.p.max()), h=inst.height, n=inst.n)
    got = _run_summary(STREAMING_ALGORITHMS[mode](inst.events(), params))
    assert len(taken) == -(-inst.n // streaming.EVENT_BATCH)
    assert got == _run_summary(STREAMING_ALGORITHMS[mode](inst.chunks(), params))


def _spy_sketch_counts(monkeypatch) -> list:
    """The number of jobs each call of `TreeSketch.count_chunk` is given from now on."""
    taken = []
    count_chunk = TreeSketch.count_chunk

    def spy(self, u, d, *args):
        taken.append(u.size)
        count_chunk(self, u, d, *args)

    monkeypatch.setattr(TreeSketch, "count_chunk", spy)
    return taken


@pytest.mark.parametrize("mode", ["stream2", "stream4"])
def test_arc_modes_count_the_sketch_once(mode, tmp_path, monkeypatch):
    """The arc modes count every job once, at its final depth, at the end of the stream, on a file and on events."""
    monkeypatch.setattr(fileio, "BLOCK_CHARS", 1000)  # many job and arc chunks
    inst = ss.layered([300, 250, 200], c=9, m=3, seed=4)
    params = P(epsilon=0.3, m=inst.m, n=inst.n if mode == "stream4" else None)
    path = str(tmp_path / "inst.txt")
    fileio.write_instance(inst, path, with_depths=False)
    want = _run_summary(stream_per_event(inst.events(with_depth=False), params, mode))
    for source in (lambda: fileio.iter_chunks(path), lambda: inst.events(with_depth=False)):
        taken = _spy_sketch_counts(monkeypatch)
        assert _run_summary(STREAMING_ALGORITHMS[mode](source(), params)) == want
        assert taken == [inst.n]


@pytest.mark.parametrize("mode", ["stream2", "stream4"])
@pytest.mark.parametrize("rows", [1, 64, 700])
def test_arc_modes_count_in_slices(mode, rows, monkeypatch):
    """The final count takes `COUNT_ROWS` jobs a call, or twice the sketch's nodes if more, and reports the same."""
    monkeypatch.setattr(streaming, "COUNT_ROWS", rows)
    inst = ss.layered([300, 250, 200], c=9, m=3, seed=4)
    params = P(epsilon=0.05, m=inst.m, n=inst.n if mode == "stream4" else None)
    want = _run_summary(stream_per_event(inst.events(with_depth=False), params, mode))
    nodes = []  # the sketch's node count before each call
    count_chunk = TreeSketch.count_chunk

    def spy(self, u, d, *args):
        nodes.append((self.node_count, u.size))
        count_chunk(self, u, d, *args)

    monkeypatch.setattr(TreeSketch, "count_chunk", spy)
    assert _run_summary(STREAMING_ALGORITHMS[mode](inst.chunks(with_depth=False), params)) == want
    assert sum(size for _, size in nodes) == inst.n
    assert all(size == max(rows, 2 * held) for held, size in nodes[:-1]) and nodes[-1][1] <= max(rows, 2 * nodes[-1][0])
    assert len(nodes) > 2 if rows < 700 else len(nodes) == 2


def _stream4_summary(chunks: list, params: ss.AlgoParams) -> dict:
    """stream4's run summary, checked against the per-event reference."""
    got = _run_summary(ss.stream_alpha_unknown(chunks, params))
    assert got == _run_summary(stream_per_event(chunks, params, "stream4"))
    return got


def test_stream4_moves_only_the_counts_of_counted_jobs():
    """A raise of a skipped job's depth has no count to move: the skipped jobs stay out of the sketch."""
    big = 10**6
    chunks = [  # 1 * 5^2 < 10^6: jobs 2 and 3 are skipped
        *_int64_chunks([ss.Job(j, p) for j, p in enumerate([big, 1, 1, big, big], 1)], 5),
        *_int64_chunks([A(1, 4)], 1),  # moves a counted job
        *_int64_chunks([A(1, 2), A(2, 3), A(4, 5)], 3),  # raises 2 and 3, which hold no count, then moves 5
    ]
    got = _stream4_summary(chunks, P(epsilon=0.3, m=1, n=5, alpha=0.25))
    assert got["counted"] == 3
    assert got["depths"] == [1, 2, 3, 2, 3]


@pytest.mark.parametrize(
    "p",
    [
        [10**6, 111110, 10**6],  # n = 3: 111110 * 9 < 10^6; no node holds its bucket at depth 1
        [62499, 10**6, 62499, 10**6],  # n = 4: 62499 * 16 < 10^6; the node of job 1, counted first, does
    ],
)
def test_stream4_skipped_job_in_the_cutoffs_bucket(p):
    """A job skipped in the final cutoff's bucket holds no count: an arc that raises it moves nothing."""
    n = len(p)
    params = P(epsilon=0.3, m=1, n=n, alpha=0.25)
    gb = ss.buckets_for(ss.derive_params(params, "stream4").delta)
    assert gb.index(p[-2]) == gb.floor_log(10**6, n * n)  # the bucket alone does not tell it holds no count
    chunks = list(_int64_chunks([ss.Job(j, q) for j, q in enumerate(p, 1)] + [A(n, n - 1)], n))
    got = _stream4_summary(chunks, params)
    assert got["counted"] == n - 1
    assert got["depths"] == [1] * (n - 2) + [2, 1]


@pytest.mark.parametrize("rows", [1, 3])
def test_stream4_evicted_job_raised_by_an_arc(rows):
    """n = 3: job 1 is counted, evicted when 10^6 lifts the cutoff past its bucket, then raised: it moves nothing."""
    jobs = [ss.Job(1, 1), ss.Job(2, 10**6), ss.Job(3, 10**6)]
    chunks = [*_int64_chunks(jobs, rows), *_int64_chunks([A(2, 1), A(2, 3)], 2)]
    got = _stream4_summary(chunks, P(epsilon=0.3, m=1, n=3))
    assert got["counted"] == 2
    assert got["depths"] == [2, 1, 2]


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    jobs=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 2**40)), min_size=1, max_size=40),
    ascending=st.booleans(),
    scrambled=st.booleans(),
    rows=st.integers(1, 64),
    tight=st.booleans(),
    epsilon=st.sampled_from([0.3, 0.05]),
    more=st.sampled_from([0, 0, 0, 100, 300]),
    edge=st.sampled_from([None, None, "skipped", "evicted"]),
)
def test_arc_modes_match_per_event(data, jobs, ascending, scrambled, rows, tight, epsilon, more, edge):
    """stream4 (and stream2) on events and on list and int64 chunks of 1..64 rows report what the per-event route does.

    Ids are 1..n in any order, or drawn with repeats and gaps, so the checks that `freeze` makes once
    the arcs begin or the stream ends are compared too.
    Log-spread p, drawn or ascending, so the capped mode skips and evicts; arcs in topological order,
    or as drawn (back arcs, unseen ids and self-loops), so errors are compared too.  ``more`` adds
    that many seeded jobs, each with one arc from an earlier id: with ascending p, the per-event
    route's lazy prunes then often leave nodes below the cutoff when the arcs begin.  ``edge`` adds
    job n, which the last arc raises: last in the stream and one below the final maximum over n^2,
    so skipped in the cutoff's own bucket, or first with p = 1, so counted and then evicted.
    """
    rng = np.random.default_rng(more + len(jobs))
    jobs = jobs + list(zip(rng.integers(0, 41, size=more).tolist(), rng.integers(0, 2**40, size=more).tolist()))
    p = [(1 << k) + r % (1 << k) for k, r in jobs]
    if ascending:
        p.sort()
    n = len(p)
    some_ids = st.lists(st.integers(1, n + 2), min_size=n, max_size=n)  # repeats and gaps
    ids = data.draw(st.one_of(st.permutations(range(1, n + 1)), some_ids))
    arcs = data.draw(st.lists(st.tuples(st.integers(1, n + 1), st.integers(1, n + 1)), max_size=3 * (n - more)))
    arcs += [(int(rng.integers(1, b)), b) for b in range(n - more + 1, n + 1) if b > 1]
    if not scrambled:  # each job's in-arcs before its out-arcs
        arcs = sorted({(a, b) for a, b in arcs if a < b <= n}, key=lambda arc: (arc[1], arc[0]))
    events = [ss.Job(i, q) for i, q in zip(ids, p)]
    if edge:
        n += 1
        arcs.append((data.draw(st.integers(1, n - 1)), n))  # after every arc into or out of an earlier id
        events = events + [ss.Job(n, max(1, (max(p) - 1) // n**2))] if edge == "skipped" else [ss.Job(n, 1)] + events
    events += [ss.Arc(a, b) for a, b in arcs]
    for mode, params in _arc_mode_params(n, epsilon):
        want = _outcome(lambda: stream_per_event(events, params, mode, tight))
        for source in _arc_mode_inputs(events, rows).values():
            assert _outcome(lambda: STREAMING_ALGORITHMS[mode](source(), params, tight=tight)) == want


def _peak_bytes_per_job(mode: str) -> float:
    """An arc mode's traced peak on a 15,000-job event list, per job, as the benchmark takes it."""
    inst = ss.layered([5000] * 3, c=50, m=100, seed=1)
    events = list(inst.events(with_depth=False))
    gc.collect()
    core._buckets_for.cache_clear()  # the bucket tables count, as in a fresh process
    tracemalloc.start()
    try:
        STREAMING_ALGORITHMS[mode](events, P(epsilon=0.3, m=100, n=inst.n if mode == "stream4" else None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / inst.n


def test_stream4_peak_bytes_per_job():
    """stream4's traced peak: job parts go before depths come."""
    assert _peak_bytes_per_job("stream4") <= 40


def test_stream2_peak_bytes_per_job():
    """stream2's traced peak: ids running 1..n keep no id column, as a job's position is its id - 1."""
    assert _peak_bytes_per_job("stream2") <= 40


def test_columnar_stream2_long_chain(monkeypatch):
    """A 5,000-job chain in 7-row chunks: one depth per job, every arc raising its end."""
    monkeypatch.setattr(model, "CHUNK_ROWS", 7)
    inst = ss.chain(m=1, q=1, h=5_000)
    params = P(epsilon=0.3, m=1)
    rep = ss.stream_unknown(inst.chunks(with_depth=False), params)
    assert isinstance(rep.extras["depth_table"], DepthColumns)
    assert _run_summary(rep) == _run_summary(ss.stream_unknown(inst.events(with_depth=False), params))
    assert rep.extras["h_discovered"] == 5_000


@pytest.mark.parametrize("mode", sorted(STREAMING_ALGORITHMS))
def test_empty_job_chunk_is_skipped(mode, monkeypatch):
    """A zero-row int64 job chunk, first, between job chunks or after the arcs, changes no report."""
    monkeypatch.setattr(model, "CHUNK_ROWS", 7)
    inst = CHUNK_INSTANCES["layered"]()
    given = mode in ("stream1", "stream3")
    kwargs = {"stream1": dict(c=9, h=3), "stream2": {}, "stream3": dict(c=9, h=3, n=inst.n), "stream4": dict(n=inst.n)}
    params = P(epsilon=0.3, m=inst.m, **kwargs[mode])
    fn = STREAMING_ALGORITHMS[mode]
    e = np.empty(0, dtype=np.int64)
    chunks = list(inst.chunks(with_depth=given))
    want = _run_summary(stream_per_event(chunks, params, mode))
    for at in (0, 1, len(chunks)):
        with_empty = chunks[:at] + [model.JobChunk(e, e, e if given else None)] + chunks[at:]
        assert _run_summary(fn(with_empty, params)) == want


def _job_chunks(p: list, depth: list, rows: int):
    """Jobs 1..n with these times and depths, as int64 column chunks of at most ``rows`` jobs."""
    ids = np.arange(1, len(p) + 1, dtype=np.int64)
    p, depth = np.array(p, dtype=np.int64), np.array(depth, dtype=np.int64)
    for lo in range(0, len(p), rows):
        yield model.JobChunk(ids[lo:lo + rows], p[lo:lo + rows], depth[lo:lo + rows])


def _spy_count(monkeypatch) -> list:
    """What each call of the job-chunk counter returns from now on: the running maximum and cutoff after it."""
    taken = []
    count = streaming._count_chunk

    def spy(*args):
        taken.append(count(*args))
        return taken[-1]

    monkeypatch.setattr(streaming, "_count_chunk", spy)
    return taken


def _given_routes(
    p: list,
    depth: list,
    rows: int,
    monkeypatch,
    *,
    mode: str = "stream3",
    c: int | None = None,
    h: int | None = None,
    epsilon: float = 0.3,
    tight: bool = False,
) -> tuple[list, dict | tuple, dict | tuple]:
    """stream1 or stream3 on int64 chunks, the per-event reference on events, and what each counter call returned."""
    taken = _spy_count(monkeypatch)
    fn = STREAMING_ALGORITHMS[mode]
    params = P(epsilon=epsilon, m=1, c=c or max(p), h=h or max(depth), n=len(p), alpha=0.25)
    monkeypatch.setattr(model, "CHUNK_ROWS", rows)
    if min(depth) >= 1 and min(p) >= 1:
        inst = ss.Instance(p=p, depth=depth, arcs=[], m=1)
        chunks, events = inst.chunks(), inst.events()
    else:  # `Instance` and `Job` reject p and depth 0; list columns are packed into int64 chunks at the door
        chunks, events = _job_chunks(p, depth, rows), [model.JobChunk(list(range(1, len(p) + 1)), p, depth)]
    want = _outcome(lambda: stream_per_event(events, params, mode, tight))
    got = _outcome(lambda: fn(chunks, params, tight=tight))
    return taken, got, want


@settings(max_examples=150, deadline=None)
@given(
    jobs=st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 2**40), st.integers(1, 4)), min_size=1, max_size=120
    ),
    ascending=st.booleans(),
    rows=st.integers(1, 64),
    tight=st.booleans(),
    epsilon=st.sampled_from([0.3, 0.05]),
)
def test_columnar_stream3_matches_per_event(jobs, ascending, rows, tight, epsilon):
    """stream3, and stream1 with c = max(p), on int64 chunks of 1..64 rows report what the per-event route does."""
    p = [(1 << k) + r % (1 << k) for k, r, _ in jobs]  # log-spread, so jobs are skipped and evicted
    depth = [d for _, _, d in jobs]
    if ascending:
        p.sort()
    for mode in ("stream1", "stream3"):
        with pytest.MonkeyPatch.context() as mp:
            taken, got, want = _given_routes(p, depth, rows, mp, mode=mode, tight=tight, epsilon=epsilon)
        assert got == want
        if mode == "stream1":
            assert len(set(taken)) == 1  # the uncapped mode keeps one constant cutoff


@pytest.mark.parametrize("order", ["equal first", "below first"])
@pytest.mark.parametrize("rows", [1, 2, 3, 4])
def test_columnar_stream3_skip_boundary(rows, order, monkeypatch):
    """With n = 4: p * n^2 equal to the running maximum keeps the job, one below it skips it."""
    p = [1600, 100, 99, 1600] if order == "equal first" else [1600, 99, 100, 1600]
    taken, got, want = _given_routes(p, [1, 1, 2, 2], rows, monkeypatch)
    assert got == want
    assert got["counted"] == 3
    assert len(taken) == -(-4 // rows)  # every chunk took the columnar count


def test_columnar_stream3_skip_boundary_in_an_evicting_chunk(monkeypatch):
    """With n = 4, in a chunk that evicts: p * n^2 equal to the running maximum keeps the job."""
    taken, got, want = _given_routes([10, 1600, 100, 99], [1, 1, 2, 2], 4, monkeypatch)
    assert got == want
    assert len(taken) == 1  # one chunk, counted whole; the node of 10 is evicted when 1600 lifts the cutoff
    assert got["counted"] == 2  # 1600 and 100; 99 is skipped


@pytest.mark.parametrize("below", [1, 0])
def test_columnar_stream3_eviction_boundary(below, monkeypatch):
    """n = 3: a new maximum's cutoff one bucket above a node evicts it; at the node's bucket it does not."""
    big = 10**6
    gb = ss.buckets_for(ss.derive_params(P(epsilon=0.3, m=1, c=big, h=1, n=3, alpha=0.25), "stream3").delta)
    cutoff = gb.floor_log(big, 9)
    taken, got, want = _given_routes([gb.bound(cutoff - below), big, big], [1, 1, 1], 1, monkeypatch)
    assert got == want
    assert len(taken) == 3  # every one-row chunk is counted
    assert got["counted"] == 3 - below  # the first job's node is evicted, or kept


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_columnar_stream3_evicting_chunk_is_counted_whole(rows, monkeypatch):
    """A new maximum lifts the cutoff above a sketch node, or a kept job of its own chunk."""
    # n = 3: after 1000 the cutoff is floor_log(1000 / 9), above the bucket of 10
    taken, got, want = _given_routes([10, 1000, 5], [1, 2, 1], rows, monkeypatch)
    assert got == want
    assert got["peak_node_count"] == 1  # the node of 10 goes as the one of 1000 comes
    assert len(taken) == -(-3 // rows)


def test_columnar_stream3_depth_past_h_mid_chunk(monkeypatch):
    taken, got, want = _given_routes([5, 6, 7, 8], [1, 2, 3, 1], 4, monkeypatch, h=2)
    assert got == want == (ss.InputContractError, "job 3 has depth 3 > h=2")
    assert taken == []  # the chunk check raises before the counter


@pytest.mark.parametrize("depth", [[1, 0, 1], [0, 1, 1]])
def test_columnar_stream3_depth_zero(depth, monkeypatch):
    """A depth-0 job raises, whether the capped mode would skip it (first case) or keep it."""
    taken, got, want = _given_routes([10**6, 1, 10**6], depth, 3, monkeypatch)
    assert got == want == (ss.InputContractError, "depth must be >= 1, got 0")
    assert taken == []


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize(
    "p",
    [
        [2**63 - 1],
        # n = 3: (2**63 - 1) // 9 * 9 is below the maximum, one more times 9 is past it
        [2**63 - 2, 2**63 - 1, (2**63 - 1) // 9],
        [2**63 - 2, 2**63 - 1, (2**63 - 1) // 9 + 1],
    ],
)
def test_columnar_stream3_near_int64_max(p, rows, monkeypatch):
    taken, got, want = _given_routes(p, [1] * len(p), rows, monkeypatch)
    assert got == want
    assert got["p_max"] == 2**63 - 1
    assert len(taken) == -(-len(p) // rows)


def test_columnar_stream3_rejects_a_maximum_past_int64(monkeypatch):
    """A `Job` event may carry p >= 2**63; it raises at the door, before the int64 chunk after it."""
    taken = _spy_count(monkeypatch)
    params = P(epsilon=0.3, m=1, c=1, h=1, n=3)
    chunk = model.JobChunk(np.array([2, 3]), np.array([2**62, 2**63 - 1]), np.array([1, 1]))
    with pytest.raises(ss.InputContractError, match=r"^processing time 9223372036854775808 exceeds 2\*\*63 - 1$"):
        ss.stream_alpha_known([ss.Job(1, 2**63, 1), chunk], params)
    assert taken == []


@pytest.mark.parametrize(
    "p,depth,error",
    [
        ([5, 0, 7], [1, 1, 1], (ss.ParamError, "processing time must be >= 1, got 0")),
        ([5, 6, 7], [1, 0, 1], (ss.InputContractError, "depth must be >= 1, got 0")),
        ([5, 6, 7], [1, -2, 1], (ss.InputContractError, "depth must be >= 1, got -2")),
        ([5, 9, 7], [1, 1, 1], (ss.InputContractError, "job 2 has p=9 > c=8")),
        ([5, 6, 7], [1, 3, 1], (ss.InputContractError, "job 2 has depth 3 > h=2")),
        # one row with two errors raises the first in the walk's order; an earlier row's error wins
        ([5, 0, 7], [1, 3, 1], (ss.ParamError, "processing time must be >= 1, got 0")),
        ([5, 9, 7], [1, 3, 1], (ss.InputContractError, "job 2 has depth 3 > h=2")),
        ([5, 9, 7], [1, 0, 1], (ss.InputContractError, "job 2 has p=9 > c=8")),
        ([5, 9, 7], [1, 1, 3], (ss.InputContractError, "job 2 has p=9 > c=8")),
        ([5, 6, 0], [1, 3, 1], (ss.InputContractError, "job 2 has depth 3 > h=2")),
    ],
)
def test_columnar_stream1_rejects_what_the_loop_rejects(p, depth, error, monkeypatch):
    """A hand-built int64 chunk with one bad job mid-chunk: the chunk check raises that job's error."""
    taken, got, want = _given_routes(p, depth, 3, monkeypatch, mode="stream1", c=8, h=2)
    assert got == want == error
    assert taken == []


def _spy_skips(monkeypatch) -> list:
    """The number of jobs each call of the skip step (`streaming._skip_chunk`) is given from now on."""
    taken = []
    skip = streaming._skip_chunk

    def spy(p, *args):
        taken.append(p.size)
        return skip(p, *args)

    monkeypatch.setattr(streaming, "_skip_chunk", spy)
    return taken


@pytest.mark.parametrize("rows", [7, 1 << 16])
def test_columnar_stream4_skips_by_job_chunk(rows, monkeypatch):
    """stream4 hands each int64 job chunk whole to the skip step, and counts the sketch once, at the end."""
    taken, counted = _spy_skips(monkeypatch), _spy_sketch_counts(monkeypatch)
    monkeypatch.setattr(model, "CHUNK_ROWS", rows)
    inst = CHUNK_INSTANCES["layered"]()  # p <= 9 < n^2: no job is skipped or evicted
    params = P(epsilon=0.3, m=inst.m, n=inst.n)
    got = _run_summary(ss.stream_alpha_unknown(inst.chunks(with_depth=False), params))
    assert got == _run_summary(stream_per_event(inst.events(with_depth=False), params, "stream4"))
    assert taken == [min(rows, inst.n - lo) for lo in range(0, inst.n, rows)]
    assert (counted, got["counted"]) == ([inst.n], inst.n)

    taken.clear()
    counted.clear()
    inst = _ascending_instance()  # each new maximum lifts the cutoff past the buckets of earlier jobs
    params = P(epsilon=0.3, m=inst.m, n=inst.n)
    got = _run_summary(ss.stream_alpha_unknown(inst.chunks(with_depth=False), params))
    assert got == _run_summary(stream_per_event(inst.events(with_depth=False), params, "stream4"))
    assert got["counted"] < inst.n  # jobs were skipped or evicted
    assert len(taken) == -(-inst.n // rows)
    assert counted == [inst.n]
