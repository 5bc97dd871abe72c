"""Input sketch operations: add, move, prune, finalize, serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schedsketch as ss
from schedsketch.sketch import (
    TreeSketch,
    sketch_finalize_alpha,
    sketch_from_json,
    sketch_to_json,
)


def entries(sk):
    return list(sk.entries())


class TestAdd:
    def test_insert_into_empty(self):
        sk = TreeSketch()
        sk.add(1, 0)
        assert entries(sk) == [(1, 0, 1)]

    def test_increment(self):
        sk = TreeSketch()
        sk.add(1, 0)
        sk.add(1, 0)
        assert entries(sk) == [(1, 0, 2)]

    def test_ordering_is_bucket_major(self):
        sk = TreeSketch()
        sk.add(1, 0)
        sk.add(2, 3)
        assert entries(sk) == [(1, 0, 1), (2, 3, 1)]
        sk.add(1, 3)
        # same bucket: depth breaks the tie
        assert entries(sk) == [(1, 0, 1), (1, 3, 1), (2, 3, 1)]

    def test_counts_and_order(self):
        sk = TreeSketch()
        sk.add(2, 0)
        sk.add(1, 1)
        sk.add(2, 0)
        assert entries(sk) == [(2, 0, 2), (1, 1, 1)]
        assert sk.node_count == 2
        assert sk.total_counted == 3


class TestMove:
    def test_count_conservation_single(self):
        sk = TreeSketch()
        sk.add(1, 2)
        sk.move(1, 2, 2)
        assert entries(sk) == [(2, 2, 1)]
        assert sk.total_counted == 1

    def test_partial_move(self):
        sk = TreeSketch()
        for _ in range(3):
            sk.add(1, 2)
        sk.move(1, 2, 3)
        assert entries(sk) == [(1, 2, 2), (3, 2, 1)]

    def test_missing_source_is_invariant_violation(self):
        sk = TreeSketch()
        with pytest.raises(ss.InvariantViolationError):
            sk.move(1, 0, 2)

    def test_move_must_raise_depth(self):
        sk = TreeSketch()
        sk.add(2, 0)
        with pytest.raises(ss.InvariantViolationError):
            sk.move(2, 0, 1)

    def test_move_if_present_tolerates_missing(self):
        sk = TreeSketch()
        assert sk.move_if_present(1, 0, 2) == (False, False)


class TestPrune:
    def test_removes_minimum_below_cutoff(self):
        sk = TreeSketch()
        sk.add(1, -5)
        sk.add(1, -5)
        sk.add(1, 3)
        sk.prune_smallest(0)
        assert entries(sk) == [(1, 3, 1)]

    def test_keeps_minimum_at_or_above_cutoff(self):
        sk = TreeSketch()
        sk.add(1, 3)
        sk.prune_smallest(0)
        assert entries(sk) == [(1, 3, 1)]
        sk.prune_smallest(3)
        assert entries(sk) == [(1, 3, 1)]

    def test_noop_on_empty(self):
        sk = TreeSketch()
        sk.prune_smallest(0)
        assert entries(sk) == []

    def test_at_most_one_eviction_per_call(self):
        sk = TreeSketch()
        sk.add(1, -3)
        sk.add(1, -2)
        sk.add(1, 5)
        sk.prune_smallest(0)
        assert len(entries(sk)) == 2  # one stale node survives until the next call

    def test_deleted_key_recreated_after_heap_built(self):
        sk = TreeSketch()
        sk.add(1, 0)
        assert not sk.prune_smallest(-10)  # builds the heap, evicts nothing
        sk.move(1, 0, 2)  # deletes (0, 1)
        sk.add(1, 0)  # and creates it again
        assert sk.prune_smallest(1)
        assert entries(sk) == [(2, 0, 1)]
        assert sk.prune_smallest(1)
        assert not sk.prune_smallest(1)
        assert entries(sk) == []

    @pytest.mark.parametrize("copy", ["restrict", "json"])
    def test_copies_prune_from_their_own_entries(self, copy):
        sk = TreeSketch()
        for u in (-2, -1, 3):
            sk.add(1, u)
        assert sk.prune_smallest(0)  # the original's heap holds -2, -1, 3
        out = sk.restrict(-1, 3) if copy == "restrict" else sketch_from_json(sketch_to_json(sk))
        out.add(2, -5)
        assert out.prune_smallest(0)
        assert entries(out) == [(1, -1, 1), (1, 3, 1)]


class RefSketch:
    """Reference for lazy eviction: a plain dict, pruned at ``min(keys)``."""

    def __init__(self, counts=None):
        self.counts = dict(counts or {})  # (u, d) -> count

    def bump(self, key):
        created = key not in self.counts
        self.counts[key] = self.counts.get(key, 0) + 1
        return created

    def move_if_present(self, d, u, d_new):
        if (u, d) not in self.counts:
            return False, False
        self.counts[(u, d)] -= 1
        if self.counts[(u, d)] == 0:
            del self.counts[(u, d)]
        return True, self.bump((u, d_new))

    def prune_smallest(self, cutoff_u):
        if self.counts and min(self.counts)[0] < cutoff_u:
            del self.counts[min(self.counts)]
            return True
        return False

    def entries(self):
        return [(d, u, self.counts[(u, d)]) for u, d in sorted(self.counts)]

    def top_bucket(self, count):
        held = 0
        for u, d in sorted(self.counts, reverse=True):
            held += self.counts[(u, d)]
            if held >= count:
                return u
        return None


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(1, 4), st.integers(-3, 5)),
        st.tuples(st.just("move"), st.integers(1, 4), st.integers(-3, 5), st.integers(1, 3)),
        st.tuples(st.just("prune"), st.integers(-4, 6)),
    ),
    max_size=60,
)


def _run_ops(sk, ref, ops):
    for op in ops:
        if op[0] == "add":
            _, d, u = op
            assert sk.add(d, u) == ref.bump((u, d))
        elif op[0] == "move":
            _, d, u, step = op
            assert sk.move_if_present(d, u, d + step) == ref.move_if_present(d, u, d + step)
        else:
            assert sk.prune_smallest(op[1]) == ref.prune_smallest(op[1])
    assert entries(sk) == ref.entries()
    assert sk.node_count == len(ref.counts)
    for count in range(1, 8):
        assert sk.top_bucket(count) == ref.top_bucket(count)


class TestLazyEvictionMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(ops=_ops, more=_ops, u_lo=st.integers(-3, 5), width=st.integers(0, 8))
    def test_random_operation_sequences(self, ops, more, u_lo, width):
        sk, ref = TreeSketch(), RefSketch()
        _run_ops(sk, ref, ops)
        # copies start without a heap: their first prune must build it from their own dict
        kept = {k: v for k, v in ref.counts.items() if u_lo <= k[0] <= u_lo + width}
        _run_ops(sk.restrict(u_lo, u_lo + width), RefSketch(kept), more)
        _run_ops(sketch_from_json(sketch_to_json(sk)), RefSketch(ref.counts), more)
        _run_ops(sk, ref, more)


class TestFinalize:
    def test_window_from_running_max(self):
        gb = ss.buckets_for(0.1)
        sk = TreeSketch()
        sk.note_processing_time(100)
        sk.add(1, 0)    # u_lo boundary (p_max/n^2 = 1 -> u_lo = 0)
        sk.add(1, 48)   # u_hi = floor_log(100) = 48
        sk.add(1, -1)   # below the window
        sk.add(2, 49)   # above the window
        out = sketch_finalize_alpha(sk, 10, gb)
        assert entries(out) == [(1, 0, 1), (1, 48, 1)]

    def test_identity_when_within_range(self):
        gb = ss.buckets_for(0.1)
        sk = TreeSketch()
        sk.note_processing_time(100)
        sk.add(1, 10)
        out = sketch_finalize_alpha(sk, 10, gb)
        assert entries(out) == [(1, 10, 1)]

    def test_boundary_bucket_dropped(self):
        gb = ss.buckets_for(0.1)
        sk = TreeSketch()
        sk.note_processing_time(100)
        sk.add(1, -1)  # u_lo - 1
        out = sketch_finalize_alpha(sk, 10, gb)
        assert entries(out) == []


class TestSerialization:
    def test_round_trip(self):
        sk = TreeSketch()
        sk.note_processing_time(7)
        sk.note_processing_time(2)
        sk.add(1, 0)
        sk.add(3, 5)
        text = sketch_to_json(sk)
        back = sketch_from_json(text)
        assert entries(back) == entries(sk)
        assert back.p_min == 2 and back.p_max == 7
        assert sketch_to_json(back) == text


class TestDepthTable:
    def test_tracks_and_raises(self):
        t = ss.DepthTable()
        t.insert(1, 4)
        assert t.get(1) == (1, 4)
        t.raise_depth(1, 3)
        assert t.get(1) == (3, 4)

    def test_duplicate_insert_rejected(self):
        t = ss.DepthTable()
        t.insert(1, 0)
        with pytest.raises(ss.InputContractError):
            t.insert(1, 0)

    def test_unseen_id_rejected(self):
        t = ss.DepthTable()
        with pytest.raises(ss.InputContractError):
            t.get(9)

    def test_depth_never_decreases(self):
        t = ss.DepthTable()
        t.insert(1, 0)
        t.raise_depth(1, 5)
        with pytest.raises(ss.InvariantViolationError):
            t.raise_depth(1, 2)
