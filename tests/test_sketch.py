"""Input sketch operations: add, move, prune, chunk counts, restrict, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schedsketch as ss
from schedsketch.sketch import (
    TreeSketch,
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

    def test_evicts_every_node_below_the_cutoff(self):
        sk = TreeSketch()
        sk.add(1, -3)
        sk.add(2, -2)
        sk.add(1, 5)
        assert sk.prune_smallest(0)
        assert entries(sk) == [(1, 5, 1)]
        assert not sk.prune_smallest(5)

    @pytest.mark.parametrize("copy", ["restrict", "json"])
    def test_copies_prune_from_their_own_entries(self, copy):
        sk = TreeSketch()
        for u in (-2, -1, 3):
            sk.add(1, u)
        out = sk.restrict(-1, 3) if copy == "restrict" else sketch_from_json(sketch_to_json(sk))
        out.add(2, -5)
        assert out.prune_smallest(0)
        assert entries(out) == [(1, 3, 1)]
        assert entries(sk) == [(1, -2, 1), (1, -1, 1), (1, 3, 1)]  # the original keeps its nodes


class RefSketch:
    """Reference sketch: a plain dict, pruned lazily at ``min(keys)`` or eagerly below a cutoff."""

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
        """The paper's lazy prune: at most the smallest node goes."""
        if self.counts and min(self.counts)[0] < cutoff_u:
            del self.counts[min(self.counts)]
            return True
        return False

    def evict_below(self, cutoff_u):
        low = [key for key in self.counts if key[0] < cutoff_u]
        for key in low:
            del self.counts[key]
        return bool(low)

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
            if (u, d) in ref.counts:
                assert sk.move(d, u, d + step) == ref.move_if_present(d, u, d + step)[1]
            else:
                with pytest.raises(ss.InvariantViolationError):
                    sk.move(d, u, d + step)
        else:
            assert sk.prune_smallest(op[1]) == ref.evict_below(op[1])
    assert entries(sk) == ref.entries()
    assert sk.node_count == len(ref.counts)
    for count in range(1, 8):
        assert sk.top_bucket(count) == ref.top_bucket(count)


class TestEvictionMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(ops=_ops, more=_ops, u_lo=st.integers(-3, 5), width=st.integers(0, 8))
    def test_random_operation_sequences(self, ops, more, u_lo, width):
        sk, ref = TreeSketch(), RefSketch()
        _run_ops(sk, ref, ops)
        # copies go on from their own dict
        kept = {k: v for k, v in ref.counts.items() if u_lo <= k[0] <= u_lo + width}
        _run_ops(sk.restrict(u_lo, u_lo + width), RefSketch(kept), more)
        _run_ops(sketch_from_json(sketch_to_json(sk)), RefSketch(ref.counts), more)
        _run_ops(sk, ref, more)


def _sketch(counts: dict, peak: int) -> TreeSketch:
    """A sketch holding ``counts`` ((u, d) -> count) with this peak."""
    sk = TreeSketch()
    sk.add_counts(counts, counts.values())
    sk.peak_node_count = peak
    return sk


def _moves(moves: list) -> tuple:
    """(u, d, step) triples as the int64 columns u, d, d + step."""
    u, d, step = (np.array(col, dtype=np.int64) for col in zip(*moves)) if moves else [np.zeros(0, np.int64)] * 3
    return u, d, d + step


_counts = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(1, 4)), st.integers(1, 3), min_size=1, max_size=8)


@st.composite
def _move_list(draw, counts: dict) -> list:
    """Up to 30 (u, d, step) moves, each from a key that holds a count when the move comes."""
    held, moves = dict(counts), []
    for _ in range(draw(st.integers(0, 30))):
        u, d = draw(st.sampled_from(sorted(key for key, cnt in held.items() if cnt)))
        step = draw(st.integers(1, 3))
        held[(u, d)] -= 1
        held[(u, d + step)] = held.get((u, d + step), 0) + 1
        moves.append((u, d, step))
    return moves


class TestMoveCounts:
    @settings(max_examples=400, deadline=None)
    @given(
        data=st.data(),
        counts=_counts,
        peak=st.integers(0, 10),
        after=st.lists(st.integers(-1, 5), max_size=6),
        base=st.sampled_from([0, 0, 0, 2**62]),  # keys u * width + d past int64: the keys rank u instead
    )
    def test_equals_the_walk(self, data, counts, peak, after, base):
        """A batch is the walk of `move` with `note_peak` after each created node."""
        moves = [(u + base, d, step) for u, d, step in data.draw(_move_list(counts))]
        counts = {(u + base, d): cnt for (u, d), cnt in counts.items()}
        after = [cut + base for cut in after]
        sk = _sketch(counts, peak)
        sk.move_counts(*_moves(moves))
        ref, ref_peak = RefSketch(counts), peak
        for u, d, step in moves:
            if ref.move_if_present(d, u, d + step)[1]:
                ref_peak = max(ref_peak, len(ref.counts))
        assert entries(sk) == ref.entries()
        assert sk.node_count == len(ref.counts)
        assert sk.peak_node_count == ref_peak
        assert sk.total_counted == sum(counts.values())
        for cut in after:  # later prunes see the moved keys
            assert sk.prune_smallest(cut) == ref.evict_below(cut)
        assert entries(sk) == ref.entries()

    def test_peak_inside_the_batch(self):
        """Two nodes exist only between the two moves: the peak is neither the start nor the end count."""
        sk = _sketch({(0, 1): 2}, 1)
        sk.move_counts(*_moves([(0, 1, 1), (0, 1, 1)]))
        assert entries(sk) == [(2, 0, 2)]
        assert (sk.node_count, sk.peak_node_count) == (1, 2)

    @pytest.mark.parametrize("base", [0, 2**62])
    def test_a_missed_move_raises(self, base):
        """The third move finds (base, 1) empty: the batch raises, naming it, and leaves the sketch as it was."""
        sk = _sketch({(base, 1): 1, (base + 1, 1): 1}, 2)
        with pytest.raises(ss.InvariantViolationError, match=rf"^no sketch node at \(d=1, u={base}\) to move from$"):
            sk.move_counts(*_moves([(base + 1, 1, 1), (base, 1, 1), (base, 1, 2)]))
        assert entries(sk) == [(1, base, 1), (1, base + 1, 1)]
        assert (sk.node_count, sk.peak_node_count, sk.total_counted) == (2, 2, 2)


@st.composite
def _job_chunks(draw) -> tuple:
    """Held counts, then chunks of (u, d) jobs with the cutoff in force at each: it never falls, nor passes its job's u."""
    counts = draw(st.dictionaries(st.tuples(st.integers(-2, 6), st.integers(1, 3)), st.integers(1, 3), max_size=6))
    cut, jobs = draw(st.integers(-3, 4)), []
    for _ in range(draw(st.integers(1, 40))):
        cut += draw(st.sampled_from([0, 0, 0, 1, 2]))
        jobs.append((cut + draw(st.integers(0, 4)), draw(st.integers(1, 3)), cut))
    ends = sorted(draw(st.sets(st.integers(1, len(jobs) - 1), max_size=4))) if len(jobs) > 1 else []
    return counts, [jobs[lo:hi] for lo, hi in zip([0] + ends, ends + [len(jobs)])]


class TestCountChunk:
    @settings(max_examples=400, deadline=None)
    @given(start=_job_chunks(), peak=st.integers(0, 8))
    def test_equals_the_lazy_walk(self, start, peak):
        """`count_chunk` keeps the lazy walk's nodes at or above the final cutoff, and its peak, and nothing below."""
        counts, chunks = start
        sk, ref, ref_peak = _sketch(counts, peak), RefSketch(counts), peak
        for chunk in chunks:
            u, d, cut = (np.array(col, dtype=np.int64) for col in zip(*chunk))
            asked = []
            low = min([int(u.min())] + [key[0] for key in sk._map])
            sk.count_chunk(u, d, int(cut[-1]), lambda i: asked.append(i) or cut[i])
            assert bool(asked) == (cut[-1] > low)  # the cutoffs are asked for only when a node falls below one
            for u_j, d_j, cut_j in chunk:
                if ref.bump((u_j, d_j)):
                    ref.prune_smallest(cut_j)
                ref_peak = max(ref_peak, len(ref.counts))
            final = int(cut[-1])
            assert entries(sk) == [e for e in ref.entries() if e[1] >= final]
            assert sk.peak_node_count == ref_peak
        assert sk.total_counted == sum(counts.values()) + sum(map(len, chunks))

    def test_a_rise_past_an_old_node_without_a_new_one(self):
        """The cutoff evicts the node at bucket 0, and the job lands on a node that exists: no node is created."""
        sk = _sketch({(0, 1): 1, (5, 1): 1}, 2)
        sk.count_chunk(np.array([5]), np.array([1]), 3, lambda i: [3] * len(i))
        assert entries(sk) == [(1, 5, 2)]
        assert (sk.node_count, sk.peak_node_count) == (1, 2)


class TestRestrict:
    """The capped modes' finish keeps buckets floor_log(p_max/n^2) .. floor_log(p_max)."""

    def window(self):
        gb = ss.buckets_for(0.1)
        return gb.floor_log(100, 10 * 10), gb.floor_log(100)  # p_max = 100, n = 10

    def test_window_from_running_max(self):
        assert self.window() == (0, 48)
        sk = TreeSketch()
        sk.note_processing_time(100)
        sk.add(1, 0)    # the window's low end
        sk.add(1, 48)   # its high end
        sk.add(1, -1)   # below the window
        sk.add(2, 49)   # above the window
        out = sk.restrict(*self.window())
        assert entries(out) == [(1, 0, 1), (1, 48, 1)]
        assert (out.total_counted, out.p_max) == (2, 100)

    def test_identity_when_within_range(self):
        sk = TreeSketch()
        sk.note_processing_time(100)
        sk.add(1, 10)
        out = sk.restrict(*self.window())
        assert entries(out) == [(1, 10, 1)]

    def test_boundary_bucket_dropped(self):
        sk = TreeSketch()
        sk.note_processing_time(100)
        sk.add(1, -1)  # u_lo - 1
        out = sk.restrict(*self.window())
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
