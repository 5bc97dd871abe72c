"""Input sketch operations: add, move, prune, chunk counts, restrict, serialization."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from per_event import LazySketch, freeze_by_id_column, merge_by_lexsort

import schedsketch as ss
from schedsketch import sketch
from schedsketch.sketch import (
    DepthColumns,
    TreeSketch,
    pair_counts,
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

    @pytest.mark.parametrize("base", [0, 2**62])  # 2**62: packed keys (u + 1) * width + d would pass int64
    def test_a_missed_move_raises_and_changes_nothing(self, base):
        sk = _sketch({(-1, 1): 1, (base, 2): 1}, 2)
        with pytest.raises(ss.InvariantViolationError, match=rf"^no sketch node at \(d=1, u={base}\) to move from$"):
            sk.move(1, base, 3)
        assert entries(sk) == [(1, -1, 1), (2, base, 1)]
        assert (sk.node_count, sk.peak_node_count, sk.total_counted) == (2, 2, 2)

    def test_peak_counts_a_node_that_a_later_move_empties(self):
        """Two nodes exist only between the two moves: the peak is neither the start nor the end count."""
        sk = _sketch({(0, 1): 2}, 1)
        assert sk.move(1, 0, 2)
        assert not sk.move(1, 0, 2)
        assert entries(sk) == [(2, 0, 2)]
        assert (sk.node_count, sk.peak_node_count) == (1, 2)


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


def _evict_below(ref: LazySketch, cutoff_u: int) -> bool:
    """Eager eviction on the lazy reference: prune the smallest node while one lies below the cutoff."""
    evicted = False
    while ref.prune_smallest(cutoff_u):
        evicted = True
    return evicted


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
            assert sk.add(d, u) == ref.add(d, u)
        elif op[0] == "move":
            _, d, u, step = op
            if (u, d) in ref.counts:
                assert sk.move(d, u, d + step) == ref.move(d, u, d + step)
            else:
                with pytest.raises(ss.InvariantViolationError):
                    sk.move(d, u, d + step)
        else:
            assert sk.prune_smallest(op[1]) == _evict_below(ref, op[1])
    assert entries(sk) == ref.entries()
    assert sk.node_count == len(ref.counts)
    for count in range(1, 8):
        assert sk.top_bucket(count) == ref.top_bucket(count)


class TestEvictionMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(ops=_ops, more=_ops, u_lo=st.integers(-3, 5), width=st.integers(0, 8))
    def test_random_operation_sequences(self, ops, more, u_lo, width):
        sk, ref = TreeSketch(), LazySketch()
        _run_ops(sk, ref, ops)
        # copies go on from their own dict
        kept = {k: v for k, v in ref.counts.items() if u_lo <= k[0] <= u_lo + width}
        _run_ops(sk.restrict(u_lo, u_lo + width), LazySketch(kept), more)
        _run_ops(sketch_from_json(sketch_to_json(sk)), LazySketch(ref.counts), more)
        _run_ops(sk, ref, more)


def _sketch(counts: dict, peak: int) -> TreeSketch:
    """A sketch holding ``counts`` ((u, d) -> count) with this peak."""
    sk = TreeSketch()
    if counts:
        u, d = (np.repeat(np.array(col, dtype=np.int64), list(counts.values())) for col in zip(*counts))
        sk.count_chunk(u, d)
    sk.peak_node_count = peak
    return sk


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
        sk, ref, ref_peak = _sketch(counts, peak), LazySketch(counts), peak
        for chunk in chunks:
            u, d, cut = (np.array(col, dtype=np.int64) for col in zip(*chunk))
            asked = []
            low = min([int(u.min())] + sk.u[:1].tolist())  # the lowest held bucket is the first node's
            sk.count_chunk(u, d, int(cut[-1]), lambda i: asked.append(i) or cut[i])
            assert bool(asked) == (cut[-1] > low)  # the cutoffs are asked for only when a node falls below one
            for u_j, d_j, cut_j in chunk:
                if ref.add(d_j, u_j):
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


class TestArraySketchMatchesDictReference:
    """`TreeSketch` against the dict reference, `LazySketch` pruned eagerly, over random operation sequences."""

    @staticmethod
    def _same(sk, ref, gb, top):
        assert list(sk.entries()) == ref.entries()
        assert (sk.node_count, sk.peak_node_count, sk.total_counted) == (
            ref.node_count, ref.peak_node_count, ref.total_counted)
        assert sketch_to_json(sk) == sketch_to_json(ref)
        if gb is not None:  # the rounded values of buckets near 2**62 overflow a float
            us = [u for _, u, _ in ref.entries()] or [0]
            h = max([d for d, _, _ in ref.entries()], default=1)
            loads = sk.depth_loads(gb, min(us), max(us), top, h), ref.depth_loads(gb, min(us), max(us), top, h)
            assert loads[0].tobytes() == loads[1].tobytes()

    @settings(max_examples=250, deadline=None)
    @given(
        data=st.data(),
        spread=st.sampled_from([1, 1, 1, 2**59]),  # 2**59: a bucket span whose packed (u, d) keys would pass int64
        base=st.sampled_from([0, 0, 2**62]),  # (u + 1) * width past int64 for buckets near 2**62
    )
    def test_random_operation_sequences(self, data, spread, base):
        """Entries, node counts, peak, total, `depth_loads` bytes and JSON text agree after every operation.

        Chunks count jobs under cutoffs that rise within and across chunks, or evict nothing;
        runs of single moves take held counts, or miss one, which raises and changes nothing;
        `restrict` and `top_bucket` come in between.
        """
        bucket = (lambda code: code * spread + base) if spread == 1 else (lambda code: code * spread)
        gb = ss.buckets_for(0.1) if (spread, base) == (1, 0) else None
        sk, ref, cut = TreeSketch(), LazySketch(), data.draw(st.integers(-3, 2))
        for _ in range(data.draw(st.integers(1, 12))):
            op = data.draw(st.sampled_from(["chunk", "chunk", "move", "move", "restrict", "top"]))
            if op == "chunk":
                rows = []
                for _ in range(data.draw(st.integers(1, 20))):
                    cut = min(cut + data.draw(st.sampled_from([0, 0, 0, 1, 2])), 6)  # buckets stay within int64
                    rows.append((cut + data.draw(st.integers(0, 4)), data.draw(st.integers(1, 3)), cut))
                evict = data.draw(st.booleans())
                u, d, cuts = (np.array([bucket(r[0]) for r in rows]), np.array([r[1] for r in rows]),
                              np.array([bucket(r[2]) for r in rows]))
                p = data.draw(st.integers(1, 100))
                sk.note_processing_time(p)
                ref.note_processing_time(p)
                sk.count_chunk(u, d, int(cuts[-1]), lambda i: cuts[i]) if evict else sk.count_chunk(u, d)
                for u_j, d_j, cut_j in zip(u.tolist(), d.tolist(), cuts.tolist()):
                    if evict:
                        _evict_below(ref, cut_j)
                    ref.add(d_j, u_j)
                    ref.note_peak()
            elif op == "move":
                held, moves = dict(ref.counts), []
                for _ in range(data.draw(st.integers(0, 12))):
                    keys = sorted(key for key, cnt in held.items() if cnt)
                    if not keys:
                        break
                    u_j, d_j = data.draw(st.sampled_from(keys))
                    d_new = d_j + data.draw(st.integers(1, 3))
                    held[u_j, d_j] -= 1
                    held[u_j, d_new] = held.get((u_j, d_new), 0) + 1
                    moves.append((u_j, d_j, d_new))
                if moves and data.draw(st.booleans()):  # a move from a key that holds no count when it comes
                    u_j, d_j, _ = data.draw(st.sampled_from(moves))
                    moves.insert(data.draw(st.integers(0, len(moves))), (u_j, d_j + 7, d_j + 8))
                for u_j, d_j, d_new in moves:  # a move whose key holds no count raises and changes nothing
                    try:
                        want = ref.move(d_j, u_j, d_new)
                    except ss.InvariantViolationError as exc:
                        with pytest.raises(ss.InvariantViolationError) as got:
                            sk.move(d_j, u_j, d_new)
                        assert str(got.value) == str(exc)
                        break
                    assert sk.move(d_j, u_j, d_new) == want
                    if want:
                        ref.note_peak()
            elif op == "restrict":
                lo = data.draw(st.integers(-3, 8))
                hi = lo + data.draw(st.integers(0, 6))
                sk, ref = sk.restrict(bucket(lo), bucket(hi)), ref.restrict(bucket(lo), bucket(hi))
            else:
                count = data.draw(st.integers(1, 10))
                assert sk.top_bucket(count) == ref.top_bucket(count)
            self._same(sk, ref, gb, data.draw(st.integers(1, 10**6)))


def test_nodes_are_held_in_columns():
    """2,300 nodes take at most 32 B each (three int64 columns); a dict of tuple keys takes about 150 B a node."""
    keys = np.random.default_rng(1).permutation(np.repeat(np.arange(2_100), 2))  # every (u, d), u < 700, d <= 3
    tracemalloc.start()
    try:
        sk = TreeSketch()
        for chunk in np.split(keys, 14):
            sk.count_chunk(chunk // 3, chunk % 3 + 1)
        deep = np.flatnonzero(sk.d == 3)[:200]
        sk.count_chunk(sk.u[deep], sk.d[deep] + 1)  # 200 new nodes at depth 4
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sk.node_count == 2_300
    assert size <= 32 * sk.node_count


@st.composite
def _merge_case(draw) -> tuple:
    """Held nodes and distinct new pairs, counts of either sign; with ``wide``, buckets so far apart that no int64 key fits."""
    wide = draw(st.booleans())
    spread = 2**62 if wide else draw(st.sampled_from([1, 1000]))
    pair = st.tuples(st.integers(-1, 1).map(lambda i: i * spread) | st.integers(-3, 6), st.integers(1, 5))
    count = st.integers(-3, 3).filter(bool)
    held = draw(st.dictionaries(pair, count, max_size=12))
    new = draw(st.dictionaries(pair, st.integers(-3, 3), min_size=1, max_size=12))
    if wide:  # buckets -2**62 and 2**62, so (hi - lo + 1) * width passes 2**63
        held.setdefault((-spread, 1), 1)
        new.setdefault((spread, 5), 1)
    return held, draw(st.permutations(list(new.items())))


def _merge_sketch(held: dict) -> TreeSketch:
    sk = TreeSketch()
    keys = sorted(held)
    sk.u, sk.d = (np.array([k[i] for k in keys], dtype=np.int64) for i in (0, 1))
    sk.count = np.array([held[k] for k in keys], dtype=np.int64)
    return sk


class TestMerge:
    @settings(max_examples=300, deadline=None)
    @given(case=_merge_case())
    def test_equals_the_lexsort_merge(self, case):
        """The one-key merge gives the lexsort merge's nodes, counts and held flags, on either route."""
        held, pairs = case
        u, d, count = (np.array(col, dtype=np.int64) for col in ([k[0] for k, _ in pairs], [k[1] for k, _ in pairs],
                                                                 [c for _, c in pairs]))
        sk, ref = _merge_sketch(held), _merge_sketch(held)
        got, want = sk._merge(u, d, count), merge_by_lexsort(ref, u, d, count)
        assert got.tolist() == want.tolist()
        for col in ("u", "d", "count"):
            assert getattr(sk, col).dtype == np.int64
            assert getattr(sk, col).tolist() == getattr(ref, col).tolist()

    def test_peak_per_row(self):
        """100k held nodes and 100k new pairs, half of them held, merge within 40 B a row; the lexsort merge took 56."""
        rng = np.random.default_rng(3)
        keys = rng.permutation(300_000)
        held, new = np.sort(keys[:100_000]), np.sort(keys[50_000:150_000])
        sk = TreeSketch()
        sk.u, sk.d, sk.count = held // 400, held % 400 + 1, np.ones(held.size, dtype=np.int64)
        u, d, count = new // 400, new % 400 + 1, np.full(new.size, 2, dtype=np.int64)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sk._merge(u, d, count)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sk.node_count == 150_000
        assert peak <= 40 * (held.size + new.size)


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


@st.composite
def arc_stream(draw):
    """Job ids 1..n in a drawn order, then arc chunks in topological order, perhaps cut short by a bad arc.

    Arcs join jobs earlier to later in a drawn order, plus a path through a run of it, as deep as
    the drawn chunks allow.  Each arc takes a place between its ends' ranks, so every arc into a
    job comes before every arc out of it, and arcs into one job may interleave with others.
    """
    n = draw(st.integers(1, 40))
    ids = draw(st.permutations(range(1, n + 1)))
    order = draw(st.permutations(ids))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1]),
                          max_size=3 * n))
    pairs += [(k, k + 1) for k in range(draw(st.integers(0, n - 1)))]
    places = [i + draw(st.floats(0, 0.5)) * (j - i) for i, j in pairs]  # at most j - 0.5, even rounded
    arcs = [(order[i], order[j]) for _, (i, j) in sorted(zip(places, pairs), key=lambda e: e[0])]
    bad = draw(st.sampled_from([None, None, "late", "unseen", "self-loop"]))
    if bad and arcs:
        k = draw(st.integers(0, len(arcs) - 1))
        a, b = arcs[k]  # b is no source yet: every arc out of it comes later
        arcs.insert(k + 1, {"late": (order[0], a), "unseen": (a, 3 * n + 1), "self-loop": (b, b)}[bad])
    cuts = sorted(draw(st.lists(st.integers(0, len(arcs)), max_size=4)))
    return ids, [arcs[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(arcs)])]


def _walk(arcs: list, depth: dict, sources: set) -> None:
    """The per-arc walk over a chunk, raising its error after the arcs before it."""
    for a, b in arcs:
        if a == b:
            raise ss.CycleSuspicionError(f"self-loop arc ({a} -> {b}) forms a cycle")
        if a not in depth or b not in depth:
            raise ss.InputContractError(f"arc references unseen job id {a if a not in depth else b}")
        if b in sources:
            raise ss.CycleSuspicionError(
                f"arc ({a} -> {b}) arrived after {b} was already a source; arc stream is not in topological order"
            )
        sources.add(a)
        depth[b] = max(depth[b], depth[a] + 1)


class TestRaiseChunk:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(stream=arc_stream(), cap=st.sampled_from([None, 0, 1, 2, 3, 5, 100]))
    def test_rounds_equal_the_walk(self, monkeypatch, stream, cap):
        """Depths and errors after each chunk equal the per-arc walk's.

        ``cap`` rounds run before the walk takes over (None: the cost model's cap), so paths
        shorter and longer than the cap are both met.
        """
        if cap is not None:  # a round costs 1 ns an arc (and a trace more), the walk cap ns an arc
            monkeypatch.setattr(sketch, "ROUND_NS", 1e-9)
            monkeypatch.setattr(sketch, "ROUND_NS_PER_ARC", 1)
            monkeypatch.setattr(sketch, "LOOP_NS_PER_ARC", cap + 1e-6)
        ids, chunks = stream
        cols = DepthColumns()
        cols.insert_chunk(np.array(ids, dtype=np.int64), np.zeros(len(ids), dtype=np.int64))
        cols.freeze()
        by_position = np.sort(ids)
        depth, sources = dict.fromkeys(ids, 1), set()
        for arcs in chunks:
            try:
                want = _walk(arcs, depth, sources)
            except ss.InputContractError as exc:
                want = (type(exc), str(exc))
            src, dst = (np.array(col, dtype=np.int64).reshape(-1) for col in (zip(*arcs) if arcs else ([], [])))
            try:
                got = cols.raise_chunk(src, dst)
            except ss.InputContractError as exc:
                got = (type(exc), str(exc))
            assert got == want
            assert cols.depth.tolist() == [depth[j] for j in by_position.tolist()]
            if isinstance(want, tuple):
                break

    @pytest.mark.parametrize("ids,missing", [([1, 3], 2), ([2, 3], 1), ([4, 1, 2], 3), ([7], 1)])
    def test_a_gap_raises_at_freeze(self, ids, missing):
        """The job section ends at the first arc chunk: a gap raises there, before any arc is checked."""
        cols = DepthColumns()
        cols.insert_chunk(np.array(ids, dtype=np.int64), np.zeros(len(ids), dtype=np.int64))
        bad_arc = np.array([99], dtype=np.int64)  # unseen, and it would be reported unless the gap won
        with pytest.raises(ss.InputContractError) as err:
            cols.raise_chunk(bad_arc, bad_arc + 1)
        assert (str(err.value), err.value.row) == (f"job ids must be exactly 1..{len(ids)}; no job has id {missing}", None)

    def test_a_job_section_broken_off_raises_only_a_repeat(self):
        """``freeze(ended=False)``, after an error in the job section, passes over a gap but raises a repeat."""
        gapped, repeated = DepthColumns(), DepthColumns()
        gapped.insert_chunk(np.array([1, 3], dtype=np.int64), np.zeros(2, dtype=np.int64))
        repeated.insert_chunk(np.array([1, 3, 1], dtype=np.int64), np.zeros(3, dtype=np.int64))
        gapped.freeze(ended=False)
        with pytest.raises(ss.InputContractError, match="duplicate job id 1 in stream"):
            repeated.freeze(ended=False)


BIG_ID = 1234567890123456789  # an id of 19 digits


@st.composite
def id_chunks(draw):
    """Job id chunks, cut anywhere (empty ones too): 1..n in order, or broken by a drawn fault.

    A fault breaks the run at a drawn place, and the ids after it may run in order again.
    """
    n = draw(st.integers(0, 30))
    ids = list(range(1, n + 1))
    fault = draw(st.sampled_from([None, None, "repeat", "gap", "descending", "reversed", "shuffled", "big"]))
    if fault and n:
        j = draw(st.integers(0, n - 1))
        if fault == "repeat":
            ids.insert(draw(st.integers(j + 1, n)), ids[j])
        elif fault == "gap":
            del ids[j]
        elif fault == "descending":
            k = draw(st.integers(j, n))
            ids[j:k] = ids[j:k][::-1]
        elif fault == "reversed":
            ids.reverse()
        elif fault == "shuffled":
            ids = draw(st.permutations(ids))
        else:
            ids[j] = BIG_ID
    cuts = sorted(draw(st.lists(st.integers(0, len(ids)), max_size=6)))
    return [ids[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(ids)])]


def _outcome(step) -> tuple:
    """What ``step`` gives: (u, depth, whether the jobs were sorted), or its error's class, text and row."""
    try:
        u, depth, reordered = step()
    except ss.InputContractError as exc:
        return type(exc), str(exc), exc.row
    return u.tolist(), depth.tolist(), reordered


class TestIdRun:
    @settings(max_examples=400, deadline=None)
    @given(chunks=id_chunks(), wide=st.booleans(), ended=st.booleans())
    def test_freeze_equals_the_id_column(self, chunks, wide, ended):
        """No id column while ids run 1, 2, 3, ...: the same errors, buckets, depths and sort as with one.

        With ``wide``, every third bucket is past int32, so int32 and int64 parts are joined.
        """
        id_parts = [np.array(ids, dtype=np.int64) for ids in chunks]
        rows = np.cumsum([0] + [len(ids) for ids in chunks])
        u_parts = [np.arange(lo, hi) + (2**40 * (np.arange(lo, hi) % 3 == 0) if wide else 0)
                   for lo, hi in zip(rows[:-1], rows[1:])]
        cols = DepthColumns()
        for ids, u in zip(id_parts, u_parts):
            cols.insert_chunk(ids, u)

        def freeze():
            cols.freeze(ended)
            return cols.u, cols.depth, cols.reordered

        assert _outcome(freeze) == _outcome(lambda: freeze_by_id_column(id_parts, u_parts, ended))

    def test_ids_in_order_keep_int32_columns(self):
        """Chunks of ids 1..n keep no id column, and buckets, depths and first sources are int32."""
        cols = DepthColumns()
        for lo in range(0, 10, 4):
            ids = np.arange(lo + 1, min(lo + 4, 10) + 1)
            cols.insert_chunk(ids, ids * 2)
        assert cols._id_parts == []
        cols.freeze()
        assert (cols.u.dtype, cols.depth.dtype, cols.first.dtype) == (np.int32,) * 3
        assert cols.u.tolist() == list(range(2, 21, 2)) and not cols.reordered
        cols.end()
        assert cols.first is None and cols.depths_array().dtype == np.int64

    @pytest.mark.parametrize("bound", [None, 100, 120, 119])
    def test_first_sources_widen_past_int32(self, monkeypatch, bound):
        """Arc positions that would reach `FIRST_BOUND` widen the first-source column to int64 once.

        321 arcs come in chunks of 40: a bound of 100 is crossed inside a chunk, one of 120 at the
        edge of one, and one of 119 by a chunk's last arc, the first out-arc of its source.  The
        depths, the first sources and the error of a late arc into job 1, first a source before the
        widening, equal those of an int32 column throughout.
        """
        layers = np.arange(1, 201).reshape(5, 40)
        arcs = [(lo[j], b) for lo, hi in zip(layers, layers[1:]) for i, b in enumerate(hi) for j in (i, (i + 1) % 40)]
        arcs.append((layers[4, 0], 1))
        first = {}
        for at, (a, _) in enumerate(arcs):
            first.setdefault(a, at)
        if bound is not None:
            monkeypatch.setattr(sketch, "FIRST_BOUND", bound)
        cols, arcs = DepthColumns(), np.array(arcs)
        cols.insert_chunk(layers.reshape(-1), np.zeros(200, dtype=np.int64))
        with pytest.raises(ss.CycleSuspicionError) as err:
            for lo in range(0, arcs.shape[0], 40):
                cols.raise_chunk(arcs[lo:lo + 40, 0], arcs[lo:lo + 40, 1])
        assert (str(err.value), err.value.row) == (
            f"arc ({layers[4, 0]} -> 1) arrived after 1 was already a source; arc stream is not in topological order",
            ("A", 320),
        )
        assert cols.depth.tolist() == np.repeat(np.arange(1, 6), 40).tolist()
        assert cols.first.dtype == (np.int32 if bound is None else np.int64)
        unset = sketch.FIRST_BOUND if bound is None else sketch.NO_SOURCE
        assert cols.first.tolist() == [first.get(j, unset) for j in range(1, 201)]


def _pairs_by_counter(u: list, d: list) -> tuple:
    """(us, ds, counts, first rows) of the distinct (u, d) pairs, sorted, by a Counter."""
    tally, firsts = Counter(zip(u, d)), {}
    for row, key in enumerate(zip(u, d)):
        firsts.setdefault(key, row)
    keys = sorted(tally)
    return [k[0] for k in keys], [k[1] for k in keys], [tally[k] for k in keys], [firsts[k] for k in keys]


class TestPairCounts:
    @settings(max_examples=400, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(-1, 4), st.integers(0, 3)), min_size=1, max_size=60),
        base=st.sampled_from([0, 0, 0, 2**62, -(2**62)]),  # keys u * width + d past int64 either way
        spread=st.sampled_from([1, 1, 2**60]),  # a bucket span whose keys pass int64 unless every d is 0
        deep=st.sampled_from([0, 0, 2**40]),
    )
    def test_routes_agree_with_a_counter(self, rows, base, spread, deep):
        """The counting route (no ``first``), the sorting route (``first``) and a Counter agree field for field."""
        u = [r[0] * spread + (base if spread == 1 else 0) for r in rows]
        d = [r[1] + deep for r in rows]
        want = _pairs_by_counter(u, d)
        counted = pair_counts(np.array(u, dtype=np.int64), np.array(d, dtype=np.int64))
        *sorted_, firsts = pair_counts(np.array(u, dtype=np.int64), np.array(d, dtype=np.int64), first=True)
        assert [col.tolist() for col in counted] == [col.tolist() for col in sorted_] == list(want[:3])
        assert firsts.tolist() == want[3]
        assert all(col.dtype == np.int64 for col in counted + tuple(sorted_))

    def test_few_keys_skip_the_sort(self, monkeypatch):
        """No more keys than rows in the bucket span: the pairs are counted, not sorted."""
        def no_sort(*args, **kwargs):
            raise AssertionError("np.unique called")

        u, d = np.array([2, 0, 2, 2, 1, 0], dtype=np.int64), np.array([1, 1, 1, 0, 0, 1], dtype=np.int64)
        monkeypatch.setattr(np, "unique", no_sort)
        assert [col.tolist() for col in pair_counts(u, d)] == [[0, 1, 2, 2], [1, 0, 0, 1], [2, 1, 1, 2]]
        with pytest.raises(AssertionError, match="np.unique called"):
            pair_counts(np.where(u == 1, -1, u), d)  # a u = -1 row: 8 keys in the span, 6 rows
