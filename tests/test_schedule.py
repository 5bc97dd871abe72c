"""Second pass: cursor semantics, feasibility, validator."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import schedsketch as ss
from conftest import random_instance


def reference_cursor(times, p, depth, m):
    """Straight transcription of the per-depth cursor walk.

    Independent of the production cut search; used to pin its
    semantics, including the off-by-one machine shift when the first
    job of a depth is longer than the whole interval.  A depth that
    runs past machine m raises for the first such depth, as the
    second pass does.
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
    for d in range(1, h + 1):
        if any(mj > m for mj, dj in zip(machine, depth) if dj == d):
            raise ss.SketchInfeasibleError(f"depth {d} needs machine {m + 1} of {m}; sketch does not fit this instance")
    for j, (sj, pj) in enumerate(zip(start, p), 1):
        if sj + pj > 2**63 - 1:
            raise ss.InputContractError(f"job {j} completion time {sj + pj} exceeds 2**63 - 1")
    return machine, start


def reference_validate(sched, inst, m=None):
    """The validator as it ordered jobs with ``np.lexsort``; the reference for the combined-key sort."""
    m = inst.m if m is None else m
    out = []
    if sched.n != inst.n:
        out.append(ss.Violation("size-mismatch", (), f"schedule has {sched.n} jobs, instance {inst.n}"))
        return out
    if sched.n == 0:
        return out
    for i in np.nonzero((sched.machine < 1) | (sched.machine > m))[0]:
        out.append(
            ss.Violation("machine-range", (int(i) + 1,), f"job {i + 1} on machine {int(sched.machine[i])} of {m}")
        )
    comp = sched.completion
    by_machine = np.lexsort((sched.start, sched.machine))
    same = sched.machine[by_machine][1:] == sched.machine[by_machine][:-1]
    overlap = same & (comp[by_machine][:-1] > sched.start[by_machine][1:])
    for i in np.nonzero(overlap)[0]:
        a, b = int(by_machine[i]) + 1, int(by_machine[i + 1]) + 1
        out.append(ss.Violation("overlap", (a, b), f"jobs {a} and {b} overlap on machine {int(sched.machine[a - 1])}"))
    if inst.arcs.size:
        src = inst.arcs[:, 0] - 1
        dst = inst.arcs[:, 1] - 1
        for i in np.nonzero(comp[src] > sched.start[dst])[0]:
            a, b = int(inst.arcs[i, 0]), int(inst.arcs[i, 1])
            out.append(
                ss.Violation(
                    "precedence",
                    (a, b),
                    f"job {b} starts at {int(sched.start[b - 1])} before job {a} completes at {int(comp[a - 1])}",
                )
            )
    return out


def depth_containment_ok(sched, depth, sks):
    """True when every depth-d job runs inside [t_{d-1}, t_d]."""
    depth = np.asarray(depth, dtype=np.int64)
    lo = np.concatenate(([0], np.asarray(sks.times[:-1], dtype=np.int64)))
    hi = np.asarray(sks.times, dtype=np.int64)
    return bool(np.all(sched.start >= lo[depth - 1]) and np.all(sched.completion <= hi[depth - 1]))


def outcome(f, *args):
    """``f(*args)``'s machines and starts as lists, or the class and message of the error it raised."""
    try:
        sched = f(*args)
    except (ss.SketchInfeasibleError, ss.InputContractError) as exc:
        return type(exc), str(exc)
    if isinstance(sched, tuple):
        return sched
    return sched.machine.tolist(), sched.start.tolist()


@st.composite
def cursor_cases(draw):
    """Sketch times, processing times, depths and m at one of three scales.

    At 2**56 a depth's jobs can sum past int64.  The third scale is the
    largest at which every depth's ``max(p) * k`` and the times still fit
    int64, so a cut search, a prefix sum plus the interval, can pass it.
    """
    h = draw(st.integers(1, 4))
    units = np.cumsum(draw(st.lists(st.integers(0, 9), min_size=h, max_size=h))).tolist()
    n = draw(st.integers(1, 25))
    pu = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    depth = draw(st.lists(st.integers(1, h), min_size=n, max_size=n))
    m = draw(st.integers(1, n + 1))
    top = max(max(q for q, d in zip(pu, depth) if d == e) * depth.count(e) for e in set(depth))
    scale = draw(st.sampled_from([1, 2**56, (2**63 - 1) // max(top, units[-1])]))
    return tuple(u * scale for u in units), [q * scale for q in pu], depth, m


WRAPPED_CUT = ((6_900_000_000_000_000_000,), [3 * 10**18] * 3, [1] * 3, 2)  # 3e18 + 6.9e18 passes int64


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

    def test_more_depths_than_uint16(self):
        # past 2**16 - 1 depths the jobs are grouped by a sort of the int64 depths
        h = 2**16 + 1
        depth = np.random.default_rng(3).permutation(h) + 1
        sched = ss.sketch_to_schedule(ss.ScheduleSketch(tuple(range(1, h + 1))), [1] * h, depth, 1)
        assert (sched.start == depth - 1).all() and (sched.machine == 1).all()

    def test_cut_search_past_int64(self):
        # max(p) * k = 9e18 fits int64, the second machine's cut search 3e18 + 6.9e18 does not
        times, p, depth, m = WRAPPED_CUT
        sched = ss.sketch_to_schedule(ss.ScheduleSketch(times), p, depth, m)
        assert sched.machine.tolist() == [1, 1, 2]
        assert (sched.machine.tolist(), sched.start.tolist()) == reference_cursor(times, p, depth, m)

    @settings(max_examples=150, deadline=None)
    @given(case=cursor_cases())
    @example(case=((3,), [5, 1], [1, 1], 3))  # first job longer than the interval: machine 1 stays empty
    @example(case=((3,), [5], [1], 1))  # ... and its one-machine shift passes m
    @example(case=((1,), [1, 1, 1], [1, 1, 1], 1))
    @example(case=((2, 2, 4), [1, 3, 1, 1, 2], [1, 2, 3, 3, 3], 1))  # an empty interval passes m
    @example(case=WRAPPED_CUT)
    def test_matches_reference_cursor(self, case):
        times, p, depth, m = case
        expect = outcome(reference_cursor, times, p, depth, m)
        assert outcome(ss.sketch_to_schedule, ss.ScheduleSketch(times), p, depth, m) == expect


@st.composite
def drawn_schedules(draw):
    """A schedule and instance with machines outside 1..m, equal starts and far starts.

    The schedule's arrays are int64 or int32.  Starts near 2**62
    (2**30 for int32) beside small ones on two machines put the
    validator's combined sort key past the arrays' own dtype: past
    int64 it takes the lexsort fallback, past int32 it must not wrap.
    """
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.int64, np.int32]))
    far = 2**62 if dtype is np.int64 else 2**30
    machine = draw(st.lists(st.integers(-1, m + 1), min_size=n, max_size=n))
    start = draw(st.lists(st.integers(-2, 12) | st.integers(far - 3, far + 12), min_size=n, max_size=n))
    p = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    arcs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=12))
    inst = ss.Instance(p=p, depth=None, arcs=np.array(arcs, dtype=np.int64).reshape(-1, 2), m=m)
    sched = ss.ConcreteSchedule(
        machine=np.array(machine, dtype=dtype), start=np.array(start, dtype=dtype), p=np.array(p, dtype=dtype)
    )
    return sched, inst


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

    @settings(max_examples=300, deadline=None)
    @given(case=drawn_schedules())
    @example(
        case=(
            ss.ConcreteSchedule(machine=np.array([1, 2, 1]), start=np.array([2**62, 0, 2**62]), p=np.array([1, 1, 1])),
            ss.Instance(p=[1, 1, 1], depth=None, arcs=[(2, 1)], m=2),
        )
    )
    @example(  # in int32 the key of job 1 wraps below machine 1's, so jobs 3 and 1 would not be neighbours
        case=(
            ss.ConcreteSchedule(
                machine=np.array([2148, 1, 2148, 1], dtype=np.int32),
                start=np.array([482_000, 0, 481_000, 10**6], dtype=np.int32),
                p=np.array([1, 1, 2000, 1], dtype=np.int32),
            ),
            ss.Instance(p=[1, 1, 2000, 1], depth=None, arcs=np.empty((0, 2), dtype=np.int64), m=2148),
        )
    )
    def test_equals_the_lexsort_validator(self, case):
        sched, inst = case
        assert ss.validate_schedule(sched, inst) == reference_validate(sched, inst)


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
                assert depth_containment_ok(sched, inst.depth, rep.schedule_sketch)

    def test_depth_table_feeds_second_pass(self):
        # unknown-parameter pass 1 exposes discovered depths for pass 2
        evs = [ss.Job(1, 2), ss.Job(2, 1), ss.Job(3, 1), ss.Arc(1, 2), ss.Arc(2, 3)]
        rep = ss.stream_unknown(evs, ss.AlgoParams(epsilon=0.3, m=1))
        depths = rep.extras["depth_table"].depths_array()
        assert depths.tolist() == [1, 2, 3]
        sched = ss.sketch_to_schedule(rep.schedule_sketch, [2, 1, 1], depths, 1)
        inst = ss.Instance(p=[2, 1, 1], depth=depths, arcs=[(1, 2), (2, 3)], m=1)
        assert ss.validate_schedule(sched, inst) == []
