"""Second pass: cursor semantics, feasibility, validator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schedsketch as ss
from conftest import random_instance


def reference_cursor(times, p, depth, m):
    """Straight transcription of the per-depth cursor walk.

    Independent of the chunked production implementation; used to pin
    its semantics, including the off-by-one machine shift when the
    first job of a depth is longer than the whole interval.
    """
    h = len(times)
    cur_m = {d: 1 for d in range(1, h + 1)}
    cur_t = {d: (0 if d == 1 else times[d - 2]) for d in range(1, h + 1)}
    machine = []
    start = []
    for pj, d in zip(p, depth):
        t_d = times[d - 1]
        base = 0 if d == 1 else times[d - 2]
        if cur_t[d] + pj <= t_d:
            machine.append(cur_m[d])
            start.append(cur_t[d])
            cur_t[d] += pj
        else:
            machine.append(cur_m[d] + 1)
            start.append(base)
            cur_m[d] += 1
            cur_t[d] = base + pj
        if machine[-1] > m:
            raise ss.SketchInfeasibleError(f"machine {machine[-1]} of {m}")
    return machine, start


class TestCursor:
    def test_six_unit_jobs_two_machines(self):
        sched = ss.sketch_to_schedule(ss.ScheduleSketch((4,)), [1] * 6, [1] * 6, 2)
        assert sched.machine.tolist() == [1, 1, 1, 1, 2, 2]
        assert sched.start.tolist() == [0, 1, 2, 3, 0, 1]
        assert sched.makespan == 4

    def test_single_job(self):
        sched = ss.sketch_to_schedule(ss.ScheduleSketch((5,)), [5], [1], 1)
        assert sched.machine.tolist() == [1]
        assert sched.start.tolist() == [0]

    def test_capacity_violation_raises(self):
        with pytest.raises(ss.SketchInfeasibleError):
            ss.sketch_to_schedule(ss.ScheduleSketch((1,)), [1, 1], [1, 1], 1)

    def test_depth_out_of_sketch_range(self):
        with pytest.raises(ss.InputContractError):
            ss.sketch_to_schedule(ss.ScheduleSketch((4,)), [1], [2], 1)

    def test_oversized_first_job_skips_machine_one(self):
        # the cursor places a job longer than the interval on machine 2
        machine, start = reference_cursor((3,), [5, 1], [1, 1], 3)
        assert machine == [2, 3]
        sched = ss.sketch_to_schedule(ss.ScheduleSketch((3,)), [5, 1], [1, 1], 3)
        assert sched.machine.tolist() == machine
        assert sched.start.tolist() == start

    def test_depth_summing_past_int64(self):
        # 16 jobs of 2**60 sum to 2**64 at one depth: two per machine, not a wrapped prefix sum
        times, p, depth = (2**61,), [2**60] * 16, [1] * 16
        sched = ss.sketch_to_schedule(ss.ScheduleSketch(times), p, depth, 16)
        assert (sched.machine.tolist(), sched.start.tolist()) == reference_cursor(times, p, depth, 16)
        assert sched.makespan == 2**61

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_reference_cursor(self, data):
        h = data.draw(st.integers(1, 4))
        scale = data.draw(st.sampled_from([1, 2**56]))  # at 2**56 a depth's jobs can sum past int64
        inc = data.draw(st.lists(st.integers(1, 9), min_size=h, max_size=h))
        times = tuple((np.cumsum(inc) * scale).tolist())
        n = data.draw(st.integers(1, 25))
        p = data.draw(st.lists(st.integers(1, 12).map(lambda x: x * scale), min_size=n, max_size=n))
        depth = data.draw(st.lists(st.integers(1, h), min_size=n, max_size=n))
        m = data.draw(st.integers(1, 6))
        sks = ss.ScheduleSketch(times)
        try:
            expect = reference_cursor(times, p, depth, m)
        except ss.SketchInfeasibleError:
            with pytest.raises(ss.SketchInfeasibleError):
                ss.sketch_to_schedule(sks, p, depth, m)
            return
        sched = ss.sketch_to_schedule(sks, p, depth, m)
        assert sched.machine.tolist() == expect[0]
        assert sched.start.tolist() == expect[1]


class TestValidator:
    def test_overlap_detected(self):
        inst = ss.Instance(p=[2, 2], depth=[1, 1], arcs=np.empty((0, 2)), m=1)
        sched = ss.ConcreteSchedule(
            machine=np.array([1, 1]), start=np.array([0, 0]), p=np.array([2, 2])
        )
        kinds = [v.kind for v in ss.validate_schedule(sched, inst)]
        assert kinds == ["overlap"]

    def test_precedence_detected(self):
        inst = ss.Instance(p=[2, 1], depth=[1, 2], arcs=[(1, 2)], m=2)
        sched = ss.ConcreteSchedule(
            machine=np.array([1, 2]), start=np.array([0, 0]), p=np.array([2, 1])
        )
        out = ss.validate_schedule(sched, inst)
        assert [v.kind for v in out] == ["precedence"]
        assert out[0].jobs == (1, 2)

    def test_machine_range_detected(self):
        inst = ss.Instance(p=[1], depth=[1], arcs=np.empty((0, 2)), m=1)
        sched = ss.ConcreteSchedule(machine=np.array([2]), start=np.array([0]), p=np.array([1]))
        assert [v.kind for v in ss.validate_schedule(sched, inst)] == ["machine-range"]

    def test_clean_schedule_passes(self):
        inst = ss.Instance(p=[2, 1], depth=[1, 2], arcs=[(1, 2)], m=2)
        sched = ss.ConcreteSchedule(
            machine=np.array([1, 2]), start=np.array([0, 2]), p=np.array([2, 1])
        )
        assert ss.validate_schedule(sched, inst) == []


class TestEndToEnd:
    def test_streaming_sketches_reconstruct_feasibly(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            inst = random_instance(rng)
            h, c = inst.height, int(inst.p.max())
            runs = [
                ss.stream_known(inst.jobs(), ss.AlgoParams(epsilon=0.3, m=inst.m, c=c, h=h)),
                ss.stream_unknown(inst.events(with_depth=False), ss.AlgoParams(epsilon=0.3, m=inst.m)),
                ss.stream_alpha_known(
                    inst.jobs(), ss.AlgoParams(epsilon=0.3, m=inst.m, c=c, h=h, n=inst.n)
                ),
                ss.stream_alpha_unknown(
                    inst.events(with_depth=False), ss.AlgoParams(epsilon=0.3, m=inst.m, n=inst.n)
                ),
            ]
            for rep in runs:
                sched = ss.schedule_instance(rep.schedule_sketch, inst)
                assert ss.validate_schedule(sched, inst) == []
                assert sched.makespan <= rep.schedule_sketch.times[-1]
                assert ss.depth_containment_ok(sched, inst.depth, rep.schedule_sketch)

    def test_depth_table_feeds_second_pass(self):
        # unknown-parameter pass 1 exposes discovered depths for pass 2
        evs = [ss.Job(1, 2), ss.Job(2, 1), ss.Job(3, 1), ss.Arc(1, 2), ss.Arc(2, 3)]
        rep = ss.stream_unknown(evs, ss.AlgoParams(epsilon=0.3, m=1))
        depths = rep.extras["depth_table"].depths_array()
        assert depths.tolist() == [1, 2, 3]
        sched = ss.sketch_to_schedule(rep.schedule_sketch, [2, 1, 1], depths, 1)
        inst = ss.Instance(p=[2, 1, 1], depth=depths, arcs=[(1, 2), (2, 3)], m=1)
        assert ss.validate_schedule(sched, inst) == []
