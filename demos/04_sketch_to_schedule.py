#!/usr/bin/env python3
"""From a few time instants to a concrete, validated schedule.

Pass 1 (any streaming or sampling run) produces a schedule sketch:
time instants t_1 < ... < t_h promising that all depth-d jobs fit into
[t_(d-1), t_d).  Pass 2 re-reads the jobs and places them as a
per-depth next-fit cursor would: it finds where each depth opens its
machines from the prefix sums, then places the depth's jobs in one
array pass; no optimization, no backtracking.  The independent
validator then replays machine occupancy and every precedence arc.

The demo prints a small instance's schedule as a text Gantt chart and
then reconstructs a 100k-job instance, checking the makespan never
exceeds the sketch's last instant.
"""

import numpy as np

import schedsketch as ss


def gantt(sched: ss.ConcreteSchedule, m: int, width: int = 60) -> str:
    span = max(1, sched.makespan)
    scale = width / span
    rows = []
    comp = sched.completion
    for mid in range(1, m + 1):
        cells = [" "] * width
        for j in np.nonzero(sched.machine == mid)[0]:
            a = int(sched.start[j] * scale)
            b = max(a + 1, int(comp[j] * scale))
            label = str(j + 1)[-1]
            for x in range(a, min(b, width)):
                cells[x] = label
        rows.append(f"  M{mid} |{''.join(cells)}|")
    return "\n".join(rows)


def main():
    inst = ss.layered(shape=[4, 3, 2], c=3, m=2, seed=5)
    rep = ss.stream_known(
        inst.jobs(), ss.AlgoParams(epsilon=0.3, m=2, c=3, h=3)
    )
    sched = ss.schedule_instance(rep.schedule_sketch, inst)
    print("layered instance, 9 jobs on 2 machines")
    print(f"  sketch times: {rep.schedule_sketch.times}")
    print(f"  makespan:     {sched.makespan}")
    print(gantt(sched, m=2))
    violations = ss.validate_schedule(sched, inst)
    print(f"  validator: {len(violations)} violation(s)")
    assert not violations

    # a deliberately broken sketch is caught, not silently accepted
    try:
        ss.sketch_to_schedule(ss.ScheduleSketch((1,)), [1, 1, 1], [1, 1, 1], 1)
    except ss.SketchInfeasibleError as exc:
        print(f"  broken sketch rejected: {exc}")
    print()

    big = ss.chain(m=50, q=40, h=3)  # 6000 chains, 18000 jobs
    rep = ss.stream_unknown(big.events(with_depth=False), ss.AlgoParams(epsilon=0.3, m=50))
    depths = rep.extras["depth_table"].depths_array()
    sched = ss.sketch_to_schedule(rep.schedule_sketch, big.p, depths, 50)
    print(f"chain instance with {big.n} jobs on 50 machines")
    print(f"  optimum {big.meta['cstar']}, sketch end {rep.schedule_sketch.times[-1]}, "
          f"makespan {sched.makespan}")
    assert sched.makespan <= rep.schedule_sketch.times[-1]
    assert ss.validate_schedule(sched, big) == []
    print("  reconstruction feasible, inside the sketch budget")


if __name__ == "__main__":
    main()
