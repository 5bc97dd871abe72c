"""The output checker accepts right answers and rejects wrong ones.

    python3 -m pytest perfbench/test_checker.py
"""

import numpy as np

import checker

# Jobs 1..4 with p = 2, 3, 1, 4 and arcs 1->3, 2->4: depths 1, 1, 2, 2.
# On m = 2 machines: sum p = 10 and the heaviest path 2->4 weighs 7, so LB = 7.
P = np.array([2, 3, 1, 4])
ARCS = np.array([[1, 3], [2, 4]])
REF = checker.reference(P, ARCS, m=2)
TIMES = [4, 8]
# job, machine, start, completion: depth 1 in [0, 4), depth 2 in [4, 8)
GOOD_ROWS = np.array([[1, 1, 0, 2], [2, 2, 0, 3], [3, 1, 4, 5], [4, 2, 4, 8]])


def test_reference_values():
    assert REF.depth.tolist() == [1, 1, 2, 2]
    assert REF.loads == (5, 5)
    assert REF.lb == 7


def test_longest_path_rejects_a_cycle():
    try:
        checker.longest_path(np.ones(2, dtype=np.int64), np.array([[1, 2], [2, 1]]))
    except ValueError:
        return
    raise AssertionError("a cycle was not detected")


def test_stream_accepts_a_sound_result():
    # delta = 0.1: floor(1.1 * 5 / 2) = 2 per depth, plus 2 * (p_max + 1) = 10
    assert checker.stream_upper_bound(REF, "stream2", 0.3, None) == 14
    assert checker.check_stream(REF, {"A": 11, "sks": [5, 11]}, "stream2", 0.3, None) == []


def test_stream_rejects_a_wrong_a():
    below = checker.check_stream(REF, {"A": 6, "sks": [3, 6]}, "stream2", 0.3, None)
    above = checker.check_stream(REF, {"A": 15, "sks": [8, 15]}, "stream2", 0.3, None)
    past_sketch = checker.check_stream(REF, {"A": 11, "sks": [5, 10]}, "stream2", 0.3, None)
    assert any("below the lower bound" in p for p in below)
    assert any("exceeds the rounding bound" in p for p in above)
    assert any("last sketch time" in p for p in past_sketch)


def test_stream_rejects_decreasing_sketch_times():
    problems = checker.check_stream(REF, {"A": 11, "sks": [12, 11]}, "stream2", 0.3, None)
    assert any("decrease" in p for p in problems)


def test_capped_modes_get_the_tail():
    # one extra ceil(p_max / n) = 1 for the skipped jobs
    assert checker.stream_upper_bound(REF, "stream4", 0.3, None) == 15


def test_schedule_accepts_a_feasible_schedule():
    assert checker.check_schedule(REF, GOOD_ROWS, TIMES) == []


def test_schedule_rejects_an_overlap():
    rows = GOOD_ROWS.copy()
    rows[2, 1] = 2  # job 3 moves onto machine 2, where job 4 runs over [4, 8)
    assert any("overlapping" in p for p in checker.check_schedule(REF, rows, TIMES))


def test_schedule_rejects_a_broken_arc_and_a_bad_machine():
    rows = GOOD_ROWS.copy()
    rows[3, 2:] = [2, 6]  # job 4 starts before job 2 completes at 3
    rows[0, 1] = 3  # machine 3 of 2
    problems = checker.check_schedule(REF, rows, TIMES)
    assert any("arc(s) violated" in p for p in problems)
    assert any("outside 1..2" in p for p in problems)
    assert any("outside their depth's interval" in p for p in problems)


def test_schedule_rejects_wrong_durations_and_a_late_makespan():
    rows = GOOD_ROWS.copy()
    rows[3, 3] = 9  # job 4 runs 5 units instead of 4, past t_h = 8
    problems = checker.check_schedule(REF, rows, TIMES)
    assert any("differs from p" in p for p in problems)
    assert any("exceeds t_h" in p for p in problems)


def test_sample_check():
    cstar = checker.two_value_cstar(n=4, n_big=1, p_big=1000, p_small=1)
    assert cstar == 1003
    assert checker.check_sample({"A": 1400, "algorithm": "sample2"}, cstar, 0.5) == []
    assert checker.check_sample({"A": 3, "algorithm": "sample2"}, cstar, 0.5) != []
    assert checker.chain_cstar(chains=10, h=3, m=4) == 8
