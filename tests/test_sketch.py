"""Input sketch operations: add, move, prune, finalize, serialization."""

import pytest

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


class TestGridSketch:
    def test_counts_and_order(self):
        g = ss.GridSketch(h=2, k=1)
        g.add(2, 0)
        g.add(1, 1)
        g.add(2, 0)
        assert list(g.entries()) == [(2, 0, 2), (1, 1, 1)]
        assert g.node_count == 2
        assert g.total_counted == 3


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
