"""Randomized sampling algorithms: accounting, exactness, statistics."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schedsketch as ss
from schedsketch import sampling
from schedsketch.sampling import _scaled_estimates


def P(**kw):
    return ss.AlgoParams(**kw)


class TestEstimateCounts:
    def test_all_identical_jobs(self):
        access = ss.ChainAccess(m=1, q=50, h=1)
        rng = np.random.default_rng(1)
        counts, draws = ss.estimate_counts(access, 10, ss.buckets_for(0.025), rng)
        assert counts == {(1, 0): 10}
        assert draws == 10

    def test_filter_above_everything_gives_empty_sketch(self):
        access = ss.ChainAccess(m=1, q=50, h=1)
        rng = np.random.default_rng(1)
        counts, draws = ss.estimate_counts(access, 10, ss.buckets_for(0.025), rng, min_p=5.0)
        assert counts == {}
        assert draws == 10  # discards never reduce the number of draws

    def test_cap_scans_everything_exactly_once(self):
        inst = ss.chain(m=3, q=5, h=2)
        access = ss.CountingAccess(ss.ArrayAccess(inst))
        rng = np.random.default_rng(0)
        counts, draws = ss.estimate_counts(access, 10**9, ss.buckets_for(0.025), rng)
        assert draws == inst.n == access.ids_fetched
        assert counts == {(1, 0): 15, (2, 0): 15}

    @pytest.mark.parametrize("deep", [2**40, 2**62])
    def test_depths_past_32_bits_are_kept(self, deep):
        # 2**62 packs past int64 with p = 3's bucket 44, so it takes the unpacked route
        inst = ss.Instance(p=[3, 3], depth=[deep, 1], arcs=np.empty((0, 2)), m=1)
        counts, _ = ss.estimate_counts(
            ss.ArrayAccess(inst), 10**9, ss.buckets_for(0.025), np.random.default_rng(0)
        )
        assert counts == {(deep, 44): 1, (1, 44): 1}

    def test_cap_is_checked_before_depth(self):
        inst = ss.Instance(p=[1, 9], depth=[1, 5], arcs=np.empty((0, 2)), m=1)
        with pytest.raises(ss.InputContractError, match=r"^sampled job has p=9 > c=2$"):
            ss.estimate_counts(ss.ArrayAccess(inst), 10**9, ss.buckets_for(0.025), np.random.default_rng(0), p_cap=2, h_cap=1)

    @pytest.mark.parametrize(
        "access,sizes",
        [
            (ss.TwoValueAccess(n=1000, n_big=500, p_big=10, p_small=1), [2]),  # 5000 draws, 22 (p, d) cells
            (ss.ChainAccess(m=1, q=100, h=3), [1]),
            (ss.ArrayAccess(ss.Instance(p=np.arange(1, 10**4 + 1) * 10**6, depth=np.ones(10**4), arcs=[], m=1)), [5000]),
        ],
    )
    def test_distinct_values_are_bucketed_once(self, access, sizes):
        """Few (p, d) values for the draws: each distinct p is bucketed once; else every draw is."""
        gb, asked = ss.buckets_for(0.025), []

        class Spy:
            def index_array(self, p):
                asked.append(p.size)
                return gb.index_array(p)

        counts, _ = ss.estimate_counts(access, 5000, Spy(), np.random.default_rng(0))
        assert asked == sizes
        assert counts == ss.estimate_counts(access, 5000, gb, np.random.default_rng(0))[0]

    def test_rejects_zero_draws(self):
        with pytest.raises(ss.InputContractError):
            ss.estimate_counts(ss.ChainAccess(1, 1, 1), 0, ss.buckets_for(0.025), np.random.default_rng(0))


def _per_draw_counts(p: list, depth: list, n_draws: int, gb, rng, min_p, chunk: int) -> tuple:
    """`estimate_counts` one draw at a time, the ids drawn ``chunk`` at a time: the counts in increasing (u, d)."""
    n = len(p)
    draws = min(n, n_draws)
    tally = Counter()
    for lo in range(0, draws, chunk):
        take = min(chunk, draws - lo)
        ids = range(lo + 1, lo + take + 1) if n_draws >= n else rng.integers(1, n + 1, size=take, dtype=np.int64).tolist()
        tally.update((gb.index(p[i - 1]), depth[i - 1]) for i in ids if min_p is None or p[i - 1] > min_p)
    return {(d, u): tally[u, d] for u, d in sorted(tally)}, draws


@st.composite
def _sampled_instances(draw) -> tuple:
    """(p, depth): p in a narrow or a wide range, or narrow with a few wide; depths small or past 2**32."""
    n = draw(st.integers(1, 40))
    p_hi = draw(st.sampled_from([1, 3, 10**12, "few wide"]))
    if p_hi == "few wide":  # the largest p drawn can rise past the table's bound mid-call
        p = draw(st.lists(st.one_of(st.integers(1, 3), st.integers(4, 10**12)), min_size=n, max_size=n))
    else:
        p = draw(st.lists(st.integers(1, p_hi), min_size=n, max_size=n))
    d_hi = draw(st.sampled_from([1, 3]))
    deep = draw(st.sampled_from([None, None, 2**33, 2**62]))
    depth = draw(st.lists(st.sampled_from(list(range(1, d_hi + 1)) + ([deep] if deep else [])), min_size=n, max_size=n))
    return p, depth


class TestEstimateCountsPerDraw:
    @settings(max_examples=300, deadline=None)
    @given(
        inst=_sampled_instances(),
        draws=st.integers(1, 100),
        seed=st.integers(0, 2**32),
        cut=st.sampled_from([None, 0.5, "some", "tie", 1e13]),
        chunk=st.sampled_from([4, 16, 1 << 16, 1 << 20]),
        held=st.sampled_from([2, 8, 1 << 20]),
    )
    def test_equals_the_per_draw_count(self, inst, draws, seed, cut, chunk, held):
        """Both counting routes give the per-draw count, keys in increasing (u, d), over any batch size, tally
        bound and fold of the per-draw parts."""
        p, depth = inst
        mid = float(sorted(p)[len(p) // 2])
        min_p = {"some": mid - 0.5, "tie": mid}.get(cut, cut)  # "tie": some p equal min_p and are dropped
        gb = ss.buckets_for(0.025)
        access = ss.ArrayAccess(ss.Instance(p=p, depth=depth, arcs=np.empty((0, 2)), m=1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "_CHUNK", chunk)
            mp.setattr(sampling, "_HELD", held)
            got = ss.estimate_counts(access, draws, gb, np.random.default_rng(seed), min_p=min_p)
        want = _per_draw_counts(p, depth, draws, gb, np.random.default_rng(seed), min_p, chunk)
        assert list(got[0].items()) == list(want[0].items())
        assert got[1] == want[1]

    @pytest.mark.parametrize("n_draws", [40, 10**9])  # 40 draws of 40 jobs and more are a full scan
    @pytest.mark.parametrize("min_p", [None, 1.5])
    def test_both_routes_in_one_call(self, monkeypatch, n_draws, min_p):
        """Small p fill the tally for the first batches; the last batch's p passes its bound, so it is bucketed per draw."""
        p = [1, 2, 3, 2] * 9 + [1, 10**6, 2, 3]
        access = ss.ArrayAccess(ss.Instance(p=p, depth=[1, 2] * 20, arcs=np.empty((0, 2)), m=1))
        gb, asked = ss.buckets_for(0.025), []

        class Spy:
            def index_array(self, p):
                asked.append(p.tolist())
                return gb.index_array(p)

        monkeypatch.setattr(sampling, "_CHUNK", 4)
        got = ss.estimate_counts(access, n_draws, Spy(), np.random.default_rng(0), min_p=min_p)
        assert len(asked) == 2 and 10**6 in asked[0]  # the last batch, draw by draw
        assert asked[1] == ([1, 2, 3] if min_p is None else [2, 3])  # then the tally's distinct p
        want = _per_draw_counts(p, [1, 2] * 20, n_draws, gb, None, min_p, 4)
        assert list(got[0].items()) == list(want[0].items())
        assert got[1] == 40

    def test_wide_values_are_not_tallied(self):
        """p of 1 and 2**19 at depth 1 take the per-draw route, in batches of 2**16, however many the draws: the
        tally's table is indexed by p, so it would hold a cell per (p, d) up to the largest, past 2**20 cells."""
        access = ss.TwoValueAccess(n=10**7, n_big=5 * 10**6, p_big=1 << 19, p_small=1)
        gb, asked = ss.buckets_for(0.1), []

        class Spy:
            def index_array(self, p):
                asked.append(p.size)
                return gb.index_array(p)

        got, draws = ss.estimate_counts(access, 3 << 19, Spy(), np.random.default_rng(0))  # (p_max + 1) * 2 <= draws
        assert max(asked) == 1 << 16 and sum(asked) == draws == 3 << 19
        assert [(d, u) for d, u in got] == [(1, 0), (1, gb.index(1 << 19))] and sum(got.values()) == draws

    @pytest.mark.parametrize("n", [1, 5, 10**6, 10**7, 2**32 - 1, 2**32 + 1, 2**40, 2**63 - 2])
    def test_batched_draws_equal_one_call(self, n):
        """`Generator.integers` gives the same ids however the draws are split, so no batch size changes the sample;
        below 2**32 it gives them in uint32 too, and leaves the generator in the same state."""
        whole = np.random.default_rng(7).integers(1, n + 1, size=4099, dtype=np.int64)
        states = []
        for dtype in (np.int64, np.uint32) if n < 2**32 else (np.int64,):
            rng = np.random.default_rng(7)
            parts = [rng.integers(1, n + 1, size=k, dtype=dtype) for k in (1, 3, 1024, 3071)]
            assert np.array_equal(np.concatenate(parts), whole)
            states.append(rng.bit_generator.state)
        assert sampling._id_dtype(n) == (np.uint32 if n < 2**32 else np.int64)
        assert all(state == states[0] for state in states)

    @pytest.mark.parametrize(
        "access",
        [
            # few (p, d) values, the tally; a uint8 p, whose key p * 2 + d passes 255
            ss.TwoValueAccess(n=2**32 - 1, n_big=2**31, p_big=200, p_small=1),
            ss.TwoValueAccess(n=2**32 + 1, n_big=2**31, p_big=200, p_small=1),
            ss.TwoValueAccess(n=2**32 - 1, n_big=2**31, p_big=2**40, p_small=1),  # p past the draws: per draw
            ss.TwoValueAccess(n=2**32 + 1, n_big=2**31, p_big=2**40, p_small=1),
            ss.ChainAccess(m=1, q=(2**32 - 1) // 3, h=3),
            ss.ChainAccess(m=1, q=6700417, h=641),  # 2**32 + 1 jobs
        ],
    )
    @pytest.mark.parametrize("min_p", [None, 1.5])
    def test_counts_either_side_of_the_id_switch(self, monkeypatch, access, min_p):
        """uint32 ids up to n = 2**32 - 1, int64 from 2**32 on: the counts are those of the int64 ids, on both routes."""
        monkeypatch.setattr(sampling, "_CHUNK", 7)
        gb, n = ss.buckets_for(0.025), access.n
        got, draws = ss.estimate_counts(access, 500, gb, np.random.default_rng(3), min_p=min_p)
        tally = Counter()
        for i in np.random.default_rng(3).integers(1, n + 1, size=500, dtype=np.int64).tolist():
            if isinstance(access, ss.TwoValueAccess):
                p, d = (access.p_big if i <= access.n_big else access.p_small), 1
            else:
                p, d = 1, (i - 1) % access.h + 1
            if min_p is None or p > min_p:
                tally[gb.index(p), d] += 1
        assert list(got.items()) == [((d, u), tally[u, d]) for u, d in sorted(tally)]
        assert draws == 500


class TestNarrowColumns:
    """`fetch` returns each column in a narrow dtype, or as a broadcast view, equal to the int64 column."""

    @pytest.mark.parametrize(
        "p_big,dtype",
        [(1, np.uint8), (255, np.uint8), (256, np.uint16), (2**16, np.uint32), (2**32 - 1, np.uint32),
         (2**32, np.int64), (2**62, np.int64)],
    )
    @pytest.mark.parametrize("n", [10**7, 2**40])  # uint32 ids, int64 ids
    @pytest.mark.parametrize("small", ["one", "p_big"])
    def test_two_value_columns(self, p_big, dtype, n, small):
        p_small = 1 if small == "one" else p_big
        n_big = n // 3
        access = ss.TwoValueAccess(n=n, n_big=n_big, p_big=p_big, p_small=p_small)
        ids = np.array([1, n_big, n_big + 1, n], dtype=sampling._id_dtype(n))
        p, depth = access.fetch(ids)
        want = np.where(ids.astype(np.int64) <= n_big, np.int64(p_big), np.int64(p_small))
        assert p.dtype == dtype and p.shape == ids.shape and p.tolist() == want.tolist()
        assert depth.shape == ids.shape and depth.tolist() == [1] * 4 and not depth.flags.writeable

    @pytest.mark.parametrize("n,h", [(2**32 - 1, 3), (2**32 + 1, 641)])
    def test_chain_columns(self, n, h):
        access = ss.ChainAccess(m=1, q=n // h, h=h)
        ids = np.array([1, h - 1, h, h + 1, n], dtype=sampling._id_dtype(n))
        p, depth = access.fetch(ids)
        assert p.shape == ids.shape and p.tolist() == [1] * 5 and not p.flags.writeable
        assert depth.dtype == ids.dtype and depth.tolist() == [1, h - 1, h, 1, h]

    @pytest.mark.parametrize(
        "access,axis",
        [(ss.ChainAccess(m=1, q=10**6, h=3), 0), (ss.ChainAccess(m=1, q=2**33, h=3), 0),
         (ss.TwoValueAccess(n=10**7, n_big=10, p_big=9, p_small=1), 1),
         (ss.TwoValueAccess(n=2**40, n_big=10, p_big=2**40, p_small=1), 1)],
    )
    def test_constant_column_is_a_stride_0_view(self, access, axis):
        """The tally counts a batch by the other column's values only when the constant one is a stride-0 view."""
        ids = np.array([1, 2, 3, 11, 12], dtype=sampling._id_dtype(access.n))
        cols = access.fetch(ids)
        assert cols[axis].strides == (0,) and cols[axis].tolist() == [1] * 5 and cols[1 - axis].strides != (0,)


class _PeriodicAccess:
    """Job i has p = ps[(i - 1) % len(ps)] and depth = ds[(i - 1) % len(ds)]; a one-value column comes back as a
    broadcast view when ``broadcast`` is set, else as a plain array."""

    def __init__(self, n, ps, ds, dtype, broadcast):
        self.n, self._ps, self._ds = n, np.array(ps, dtype=dtype), np.array(ds, dtype=dtype)
        self._broadcast = broadcast

    def fetch(self, ids):
        return tuple(
            np.broadcast_to(vals[0], ids.shape) if self._broadcast and vals.size == 1 else vals[(ids - 1) % vals.size]
            for vals in (self._ps, self._ds)
        )


def _bincount_counts(access, n_draws: int, gb, rng, min_p) -> tuple:
    """`estimate_counts` by one bincount of every batch's (p, d) key: the counts in increasing (u, d), and the draws."""
    n = access.n
    draws = min(n, n_draws)
    tally = Counter()
    for lo in range(0, draws, 5):
        take = min(5, draws - lo)
        ids = np.arange(lo + 1, lo + take + 1) if n_draws >= n else rng.integers(1, n + 1, size=take, dtype=np.int64)
        p, d = (np.asarray(col, dtype=np.int64) for col in access.fetch(ids))
        width = int(d.max()) + 1
        cnt = np.bincount(p * width + d)
        tally.update({divmod(int(key), width): int(cnt[key]) for key in np.flatnonzero(cnt)})
    bucketed = Counter()
    for (p, d), cnt in tally.items():
        if min_p is None or p > min_p:
            bucketed[gb.index(p), d] += cnt
    return {(d, u): bucketed[u, d] for u, d in sorted(bucketed)}, draws


class TestHeldCells:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.sampled_from([30, 1000, 2**32 + 7]),  # full scans of 30 jobs, and int64 ids past 2**32
        ps=st.lists(st.integers(1, 40), min_size=1, max_size=14),
        ds=st.lists(st.integers(1, 12), min_size=1, max_size=14),
        dtype=st.sampled_from([np.uint8, np.int64]),
        broadcast=st.booleans(),
        draws=st.integers(1, 300),
        seed=st.integers(0, 2**32),
        min_p=st.sampled_from([None, 2.5]),
        chunk=st.sampled_from([1, 4, 64]),
        few=st.sampled_from([1, 3, 8]),
    )
    def test_equals_a_bincount_of_every_batch(self, n, ps, ds, dtype, broadcast, draws, seed, min_p, chunk, few):
        """Constant p or depth, as views or arrays; a rare value lets the alphabet grow after the first batch; more
        cells than _FEW; min_p; full scans; int64 ids: the counts and draws of a bincount of every batch."""
        access, gb = _PeriodicAccess(n, ps, ds, dtype, broadcast), ss.buckets_for(0.025)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "_CHUNK", chunk)
            mp.setattr(sampling, "_FEW", few)
            got = ss.estimate_counts(access, draws, gb, np.random.default_rng(seed), min_p=min_p)
        want = _bincount_counts(access, draws, gb, np.random.default_rng(seed), min_p)
        assert list(got[0].items()) == list(want[0].items())
        assert got[1] == want[1]

    @pytest.mark.parametrize(
        "access,bincounts",
        [(ss.TwoValueAccess(n=10**7, n_big=5 * 10**6, p_big=10, p_small=1), 1),  # two cells from the first batch
         (ss.ChainAccess(m=1, q=10**6, h=3), 1),
         (ss.ChainAccess(m=1, q=10**6, h=8), 1),
         (ss.ChainAccess(m=1, q=10**6, h=9), 16)],  # nine cells, one past _FEW: a bincount a batch
    )
    def test_later_batches_skip_the_bincount(self, monkeypatch, access, bincounts):
        """Past the first batch, a batch whose draws all fall in the held cells is counted cell by cell."""
        calls, bincount = [], np.bincount
        monkeypatch.setattr(sampling.np, "bincount", lambda *a, **k: calls.append(1) or bincount(*a, **k))
        monkeypatch.setattr(sampling, "_CHUNK", 1 << 10)
        ss.estimate_counts(access, 16 << 10, ss.buckets_for(0.025), np.random.default_rng(0))
        assert len(calls) == bincounts


@pytest.mark.parametrize(
    "fn,keys",
    [
        (ss.rand_approx_bounded, set()),
        (ss.rand_approx_alpha, {"w0", "dropped_above_top"}),
    ],
)
def test_extras_keys_per_mode(fn, keys):
    rep = fn(ss.ChainAccess(m=1, q=100, h=2), P(epsilon=0.5, m=1, c=1, h=2, confidence_scale=1e-12))
    common = {"n", "delta", "n_prime", "n0", "tau", "cap_triggered", "estimates"}
    assert set(rep.extras) == common | keys
    assert rep.samples_drawn == rep.update_count == rep.extras["n0"] + rep.extras["n_prime"]


class TestScaling:
    def test_scaling_arithmetic(self):
        # ehat = n * count / n'
        assert _scaled_estimates({(1, 0): 3}, n=100, draws=10, tau=0.0) == {(1, 0): 30.0}

    def test_threshold_drops_small_groups(self):
        est = _scaled_estimates({(1, 0): 3, (1, 5): 1}, n=100, draws=10, tau=7.0)
        assert est == {(1, 0): 30.0}  # 10 <= 2*tau dropped, 30 > 14 kept


class TestEstimateWmax:
    def test_all_equal(self):
        access = ss.TwoValueAccess(n=100, n_big=100, p_big=5, p_small=5)
        assert ss.estimate_wmax(access, 3, np.random.default_rng(0)) == 5

    def test_max_of_draws(self):
        access = ss.TwoValueAccess(n=10, n_big=10, p_big=7, p_small=7)
        assert ss.estimate_wmax(access, 1, np.random.default_rng(1)) == 7

    def test_scale_coverage_at_full_draw_count(self):
        # with the unscaled n0, a top-alpha job is sampled except with
        # probability at most gamma
        access = ss.TwoValueAccess(n=10**6, n_big=10**5, p_big=9, p_small=1)
        drv = ss.derive_params(
            ss.AlgoParams(epsilon=0.5, m=1, c=9, h=1, alpha=0.1, n=access.n), "sample2"
        )
        assert (1 - 0.1) ** drv.n0 <= drv.gamma
        hits = sum(
            1
            for seed in range(100)
            if ss.estimate_wmax(access, drv.n0, np.random.default_rng(seed)) == 9
        )
        assert hits >= math.ceil((1 - 2 * drv.gamma) * 100)


class TestBoundedSampling:
    def test_uniform_instance_cap_is_deterministic(self):
        # n' >> n so all jobs are scanned: ehat exact, A = n + 1
        inst = ss.chain(m=1, q=40, h=1)
        for seed in (0, 7):
            rep = ss.rand_approx_bounded(ss.ArrayAccess(inst), P(epsilon=0.5, m=1, c=1, h=1, seed=seed))
            assert rep.A == 41
            assert rep.extras["cap_triggered"]
            assert rep.samples_drawn == 40

    def test_sampling_path_counts_draws_exactly(self):
        from dataclasses import replace

        access = ss.CountingAccess(ss.ChainAccess(m=1, q=10**6, h=1))
        params = P(epsilon=0.5, m=1, c=1, h=1, seed=3, confidence_scale=1 / 16)
        rep = ss.rand_approx_bounded(access, params)
        drv = ss.derive_params(replace(params, n=access.n), "sample1")
        assert rep.samples_drawn == drv.n_prime == 230073
        assert access.ids_fetched == rep.samples_drawn  # nothing else touched

    def test_deterministic_under_seed(self):
        inst = ss.chain(m=2, q=30, h=3)
        access = ss.ArrayAccess(inst)
        params = P(epsilon=0.5, m=2, c=1, h=3, seed=123, confidence_scale=1e-4)
        a = ss.rand_approx_bounded(access, params)
        b = ss.rand_approx_bounded(access, params)
        assert a.A == b.A
        assert a.schedule_sketch.times == b.schedule_sketch.times
        assert a.extras["estimates"] == b.extras["estimates"]

    def test_sampled_contract_violations_detected(self):
        inst = ss.Instance(p=[1, 5], depth=[1, 1], arcs=np.empty((0, 2)), m=1)
        with pytest.raises(ss.InputContractError):
            ss.rand_approx_bounded(ss.ArrayAccess(inst), P(epsilon=0.5, m=1, c=2, h=1))
        inst2 = ss.Instance(p=[1, 1], depth=[1, 3], arcs=np.empty((0, 2)), m=1)
        with pytest.raises(ss.InputContractError):
            ss.rand_approx_bounded(ss.ArrayAccess(inst2), P(epsilon=0.5, m=1, c=1, h=2))

    @pytest.mark.parametrize("depth", [[0, 1], [-2, 1]])
    def test_depth_below_one_rejected(self, depth):
        # such a job's load would land at loads[d - 1], the last depth
        with pytest.raises(ss.ParamError, match="all depths must be >= 1"):
            ss.Instance(p=[1, 1], depth=depth, arcs=np.empty((0, 2)), m=1)

    def test_estimated_sketch_times_monotone(self):
        inst = ss.chain(m=2, q=20, h=3)
        rep = ss.rand_approx_bounded(ss.ArrayAccess(inst), P(epsilon=0.5, m=2, c=1, h=3, seed=1))
        t = rep.schedule_sketch.times
        assert all(a < b for a, b in zip(t, t[1:]))
        assert t[-1] >= rep.A


class TestAlphaSampling:
    def test_single_job_formula_forced(self):
        inst = ss.Instance(p=[5], depth=[1], arcs=np.empty((0, 2)), m=1)
        rep = ss.rand_approx_alpha(ss.ArrayAccess(inst), P(epsilon=0.5, m=1, c=1, h=1, alpha=1.0))
        assert rep.extras["w0"] == 5
        assert rep.A == 5 + 1 * 5  # floor(A_1) + c*w0

    def test_agrees_with_bounded_when_alpha_one_and_c_one(self):
        inst = ss.chain(m=3, q=5, h=2)
        access = ss.ArrayAccess(inst)
        ra = ss.rand_approx_bounded(access, P(epsilon=0.5, m=3, c=1, h=2, seed=3))
        rb = ss.rand_approx_alpha(access, P(epsilon=0.5, m=3, c=1, h=2, alpha=1.0, seed=3))
        assert ra.extras["cap_triggered"] and rb.extras["cap_triggered"]
        assert ra.A == rb.A

    def test_samples_drawn_is_n0_plus_draws(self):
        access = ss.CountingAccess(ss.TwoValueAccess(n=10**6, n_big=500000, p_big=10, p_small=1))
        params = P(epsilon=0.5, m=1, c=10, h=1, alpha=0.5, seed=5, confidence_scale=1e-12)
        rep = ss.rand_approx_alpha(access, params)
        assert rep.samples_drawn == rep.extras["n0"] + min(rep.extras["n_prime"], access.n)
        assert access.ids_fetched == rep.samples_drawn


def _three_group_instance():
    """Two factor-c groups well above tau plus one group below it."""
    n = 1_000_000
    n_small_group = 400
    n1 = 500_000
    n2 = n - n1 - n_small_group
    p = np.concatenate(
        [
            np.ones(n1, dtype=np.int64),
            np.full(n2, 2, dtype=np.int64),
            np.full(n_small_group, 3, dtype=np.int64),
        ]
    )
    inst = ss.Instance(p=p, depth=np.ones(n, dtype=np.int64), arcs=np.empty((0, 2)), m=1)
    return inst, n1, n2, n_small_group


ACCURACY_TRIALS = 200


@pytest.fixture(scope="module")
def accuracy_trials():
    """200 seeded sampling runs on the three-group instance.

    The full-confidence sample size for c >= 2 is astronomically conservative
    (> 10^10), so the trials run at a confidence_scale that yields
    n' ~ 1e5 draws; the binomial margins are still > 7 sigma, far
    inside the 1 - 2*gamma acceptance threshold.
    """
    inst, n1, n2, n_small = _three_group_instance()
    access = ss.ArrayAccess(inst)
    base = P(epsilon=0.5, m=1, c=3, h=1, n=inst.n)
    drv = ss.derive_params(base, "sample1")
    scale = 100_000 / ((3.0 / drv.beta**2) * math.log(2.0 / drv.gamma))
    gb = ss.buckets_for(drv.delta)
    keys = gb.index(1), gb.index(2), gb.index(3)
    results = []
    for seed in range(ACCURACY_TRIALS):
        rep = ss.rand_approx_bounded(
            access, P(epsilon=0.5, m=1, c=3, h=1, seed=seed, confidence_scale=scale)
        )
        results.append(rep.extras["estimates"])
    return drv, keys, (n1, n2, n_small), results


class TestEstimationAccuracy:
    def test_large_groups_estimated_within_delta(self, accuracy_trials):
        drv, (u1, u2, _), (n1, n2, _), results = accuracy_trials
        assert n1 >= drv.tau and n2 >= drv.tau
        good = 0
        for est in results:
            e1, e2 = est.get((1, u1), 0.0), est.get((1, u2), 0.0)
            if (1 - drv.delta) * n1 <= e1 <= (1 + drv.delta) * n1 and (
                1 - drv.delta
            ) * n2 <= e2 <= (1 + drv.delta) * n2:
                good += 1
        assert good >= math.ceil((1 - 2 * drv.gamma) * ACCURACY_TRIALS)

    def test_small_groups_suppressed(self, accuracy_trials):
        drv, (_, _, u3), (_, _, n_small), results = accuracy_trials
        assert n_small < drv.tau
        good = sum(1 for est in results if (1, u3) not in est)
        assert good >= math.ceil((1 - 2 * drv.gamma) * ACCURACY_TRIALS)


class TestStatisticalAccuracy:
    def test_bounded_sampler_hits_relative_error_band(self):
        # c=1, h=1, m=1 on an implicit 10^7-job family; C* = n by construction
        access = ss.ChainAccess(m=1, q=10_000_000, h=1)
        cstar = access.n
        ok = 0
        for seed in range(100):
            rep = ss.rand_approx_bounded(
                access, P(epsilon=0.5, m=1, c=1, h=1, seed=seed, confidence_scale=1 / 16)
            )
            if (1 - 0.5) * cstar <= rep.A <= (1 + 0.5) * cstar:
                ok += 1
        assert ok >= 80

    def test_alpha_sampler_hits_relative_error_band(self):
        # half p=10, half p=1, c=10, depth 1, m=1: C* = total work
        access = ss.TwoValueAccess(n=10_000_000, n_big=5_000_000, p_big=10, p_small=1)
        cstar = access.total_p
        base = P(epsilon=0.5, m=1, c=10, h=1, alpha=0.5, n=access.n)
        drv = ss.derive_params(base, "sample2")
        scale = 200_000 / ((3.0 / (0.5 * drv.beta**2)) * math.log(2.0 / drv.gamma))
        ok = 0
        for seed in range(100):
            rep = ss.rand_approx_alpha(
                access,
                P(epsilon=0.5, m=1, c=10, h=1, alpha=0.5, seed=seed, confidence_scale=scale),
            )
            if (1 - 0.5) * cstar <= rep.A <= (1 + 0.5) * cstar:
                ok += 1
        assert ok >= 80
