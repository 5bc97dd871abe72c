"""Ground-truth oracles: depths, exact search, list scheduling."""

import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schedsketch as ss
from conftest import random_instance
from schedsketch import oracles
from schedsketch.oracles import longest_paths
from schedsketch.sketch import raise_in_rounds


class TestComputeDepths:
    def test_vee(self):
        assert ss.compute_depths([(1, 3), (2, 3)], 3).tolist() == [1, 1, 2]

    def test_no_arcs(self):
        assert ss.compute_depths([], 5).tolist() == [1] * 5

    def test_chain(self):
        assert ss.compute_depths([(1, 2), (2, 3), (3, 4)], 4).tolist() == [1, 2, 3, 4]

    def test_cycle_names_an_edge(self):
        with pytest.raises(ss.CycleSuspicionError, match=r"\(\d+, \d+\)"):
            ss.compute_depths([(1, 2), (2, 3), (3, 1)], 3)

    def test_out_of_range_arc(self):
        with pytest.raises(ss.ParamError):
            ss.compute_depths([(1, 9)], 3)


@st.composite
def weighted_dags(draw):
    """(n, src, dst, weights): a DAG on jobs 1..n in a drawn topological order, its arcs shuffled."""
    n = draw(st.integers(min_value=1, max_value=12))
    order = draw(st.permutations(range(1, n + 1)))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    arcs = draw(st.permutations(draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []))
    weights = draw(st.lists(st.integers(min_value=1, max_value=2**62), min_size=n, max_size=n))
    return n, [a for a, _ in arcs], [b for _, b in arcs], weights


class TestLongestPaths:
    @settings(max_examples=200, deadline=None)
    @given(dag=weighted_dags())
    def test_equals_a_memoized_recursion(self, dag):
        n, src, dst, weights = dag
        preds = {j: [a for a, b in zip(src, dst) if b == j] for j in range(1, n + 1)}
        succs = {j: [b for a, b in zip(src, dst) if a == j] for j in range(1, n + 1)}

        @lru_cache(maxsize=None)
        def ending_at(j):
            return weights[j - 1] + max((ending_at(q) for q in preds[j]), default=0)

        @lru_cache(maxsize=None)
        def starting_at(j):
            return weights[j - 1] + max((starting_at(q) for q in succs[j]), default=0)

        assert longest_paths(src, dst, n, weights) == [ending_at(j) for j in range(1, n + 1)]
        assert longest_paths(dst, src, n, np.array(weights)) == [starting_at(j) for j in range(1, n + 1)]
        assert longest_paths(src, dst, n) == longest_paths(src, dst, n, [1] * n)

    def test_deep_chain_hands_over_to_kahn(self, monkeypatch):
        """A 20k-job chain, its arcs given last to first: the rounds stop at their cap and Kahn's loop finishes."""
        settled = []

        def spy(*args):
            settled.append(raise_in_rounds(*args))
            return settled[-1]

        monkeypatch.setattr(oracles, "raise_in_rounds", spy)
        n = 20_000
        src = np.arange(n - 1, 0, -1)
        got = longest_paths(src, src + 1, n)
        assert settled == [False]
        assert got == list(range(1, n + 1)) and all(type(x) is int for x in got)
        assert longest_paths(src, src + 1, n, np.full(n, 3)) == list(range(3, 3 * n + 1, 3))

    @pytest.mark.parametrize("weights", [None, [1, 2, 3, 4], [2**62] * 4])
    def test_cycle_names_an_edge(self, weights):
        with pytest.raises(ss.CycleSuspicionError, match=r"^cycle detected; edge \(3, 2\) lies on a cycle$"):
            longest_paths([1, 2, 3, 3], [2, 3, 2, 4], 4, weights)

    def test_past_int64_is_exact(self):
        got = longest_paths([1], [2], 2, [2**62, 2**62])
        assert got == [2**62, 2**63] and all(type(x) is int for x in got)

    def test_no_arcs(self):
        got = longest_paths([], [], 3, np.array([4, 5, 6]))
        assert got == [4, 5, 6] and all(type(x) is int for x in got)
        assert longest_paths(np.empty(0, dtype=np.int64), [], 2) == [1, 1]
        assert longest_paths([], [], 0) == []

    def test_critical_path_past_int64_is_exact(self):
        inst = ss.Instance(p=[2**62, 2**62], depth=None, arcs=[(1, 2)], m=1)
        assert ss.critical_path_length(inst) == 2**63

    def test_critical_path_ignores_given_depths(self):
        wrong = ss.Instance(p=[5, 7, 1], depth=[3, 2, 1], arcs=[(1, 2), (2, 3)], m=1)
        assert ss.critical_path_length(wrong) == 13
        looped = ss.Instance(p=[1, 1], depth=[1, 1], arcs=[(1, 2), (2, 1)], m=1)
        with pytest.raises(ss.CycleSuspicionError, match="lies on a cycle"):
            ss.critical_path_length(looped)


def exhaustive_makespan(inst):
    """Independent oracle: explore every start-subset decision by time steps."""
    n, m = inst.n, inst.m
    p = [int(x) for x in inst.p]
    preds = [[] for _ in range(n)]
    for s, d in inst.arcs:
        preds[d - 1].append(s - 1)
    best = [sum(p) + 1]
    seen = {}

    def step(t, done_mask, running):
        key = (done_mask, running)
        prev = seen.get(key)
        if prev is not None and prev <= t:
            return
        seen[key] = t
        if done_mask == (1 << n) - 1 and not running:
            best[0] = min(best[0], t)
            return
        if t >= best[0]:
            return
        ready = [
            j
            for j in range(n)
            if not (done_mask >> j) & 1
            and all((done_mask >> q) & 1 for q in preds[j])
            and all(j != r[0] for r in running)
        ]
        free = m - len(running)
        for r in range(min(free, len(ready)), -1, -1):
            for subset in itertools.combinations(ready, r):
                newrun = list(running) + [(j, p[j]) for j in subset]
                if not newrun:
                    continue
                dt = min(rem for _, rem in newrun)
                finished = [j for j, rem in newrun if rem == dt]
                nrun = tuple(sorted((j, rem - dt) for j, rem in newrun if rem > dt))
                nd = done_mask
                for j in finished:
                    nd |= 1 << j
                step(t + dt, nd, nrun)
            if r == 0 and not running:
                break

    step(0, 0, ())
    return best[0]


class TestExactMakespan:
    def test_three_jobs_two_machines(self):
        inst = ss.Instance(p=[1, 1, 2], depth=[1, 1, 1], arcs=np.empty((0, 2)), m=2)
        assert ss.exact_makespan(inst) == 2

    def test_chain_is_critical_path(self):
        for m in (1, 2, 3):
            inst = ss.Instance(p=[1, 1, 1], depth=[1, 2, 3], arcs=[(1, 2), (2, 3)], m=m)
            assert ss.exact_makespan(inst) == 3

    def test_six_unit_jobs(self):
        inst = ss.Instance(p=[1] * 6, depth=[1] * 6, arcs=np.empty((0, 2)), m=2)
        assert ss.exact_makespan(inst) == 3

    def test_guard_refuses_large(self):
        inst = ss.Instance(p=[1] * 13, depth=[1] * 13, arcs=np.empty((0, 2)), m=2)
        with pytest.raises(ss.ParamError):
            ss.exact_makespan(inst)
        inst = ss.Instance(p=[1], depth=[1], arcs=np.empty((0, 2)), m=4)
        with pytest.raises(ss.ParamError):
            ss.exact_makespan(inst)

    def test_agrees_with_independent_search(self):
        rng = np.random.default_rng(314)
        for _ in range(40):
            inst = random_instance(rng, n_max=6)
            assert ss.exact_makespan(inst) == exhaustive_makespan(inst)

    def test_bounds_sandwich(self, small_corpus):
        for inst, cstar in small_corpus:
            lo = max(-(-int(inst.p.sum()) // inst.m), ss.critical_path_length(inst))
            ls = ss.list_schedule(inst).makespan
            assert lo <= cstar <= ls


class TestListSchedule:
    def test_six_units_any_order(self):
        inst = ss.Instance(p=[1] * 6, depth=[1] * 6, arcs=np.empty((0, 2)), m=2)
        for order in ([1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1]):
            assert ss.list_schedule(inst, order).makespan == 3

    def test_hand_simulated(self):
        inst = ss.Instance(p=[3, 1, 1, 1], depth=[1] * 4, arcs=np.empty((0, 2)), m=2)
        assert ss.list_schedule(inst, [1, 2, 3, 4]).makespan == 3

    def test_chain(self):
        inst = ss.Instance(p=[2, 2, 2], depth=[1, 2, 3], arcs=[(1, 2), (2, 3)], m=3)
        sched = ss.list_schedule(inst)
        assert sched.makespan == 6
        assert ss.validate_schedule(sched, inst) == []

    def test_always_feasible(self, small_corpus):
        for inst, _ in small_corpus[:80]:
            sched = ss.list_schedule(inst)
            assert ss.validate_schedule(sched, inst) == []

    def test_order_must_be_permutation(self):
        inst = ss.Instance(p=[1, 1], depth=[1, 1], arcs=np.empty((0, 2)), m=1)
        with pytest.raises(ss.ParamError):
            ss.list_schedule(inst, [1, 1])

    def test_waits_for_predecessors(self):
        # machine 2 must idle until job 1 completes
        inst = ss.Instance(p=[2, 1], depth=[1, 2], arcs=[(1, 2)], m=2)
        sched = ss.list_schedule(inst)
        assert sched.start[1] == 2
