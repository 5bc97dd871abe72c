"""Parameter derivation and geometric bucketing."""

import bisect
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schedsketch as ss
from schedsketch import core
from schedsketch.core import (
    CAPPED,
    FLOAT_TOP,
    GIVEN,
    NEEDS,
    SAMPLE_ALPHA,
    SAMPLE_BOUNDED,
    STREAM_ALPHA_KNOWN,
    STREAM_ALPHA_UNKNOWN,
    STREAM_KNOWN,
    STREAM_UNKNOWN,
    machine_bound_met,
    snapped_floor,
)
from schedsketch.sampling import SAMPLING_ALGORITHMS
from schedsketch.streaming import STREAMING_ALGORITHMS

ALGORITHMS = {**STREAMING_ALGORITHMS, **SAMPLING_ALGORITHMS}


def exact_base(delta: float) -> Fraction:
    return Fraction(1) + Fraction(delta)


class TestDeriveParams:
    def test_streaming_delta_is_a_third(self):
        d = ss.derive_params(ss.AlgoParams(epsilon=0.3, m=1), "stream2")
        assert d.delta == 0.3 / 3

    def test_sampling_delta_is_a_twentieth(self):
        d = ss.derive_params(ss.AlgoParams(epsilon=0.5, m=1, c=1, h=1, n=100), SAMPLE_BOUNDED)
        assert d.delta == 0.5 / 20

    def test_bounded_sampling_constants(self):
        # recompute the closed form with arbitrary precision from the same floats
        params = ss.AlgoParams(epsilon=0.5, m=1, c=1, h=1, n=10**7)
        d = ss.derive_params(params, SAMPLE_BOUNDED)
        assert d.k == 0 and d.k_eff == 1
        assert d.delta == 0.5 / 20
        assert d.p == 0.0625
        assert d.beta == d.delta * d.p
        assert d.gamma == 0.1
        mpmath.mp.dps = 50
        expected = mpmath.ceil(mpmath.mpf(3) / mpmath.mpf(d.beta) ** 2 * mpmath.log(mpmath.mpf(2) / mpmath.mpf(d.gamma)))
        assert d.n_prime == int(expected) == 3681156

    @pytest.mark.parametrize("c", [1, 2, 50, 4 * 10**8, 10**12, 2**62])
    @pytest.mark.parametrize("delta", [0.1, 0.05 / 3, 0.01 / 3])
    def test_floor_log_of_c_is_its_bucket(self, c, delta):
        assert ss.GeometricBuckets(delta).floor_log(c) == ss.GeometricBuckets(delta).index(c)

    def test_a_loose_c_leaves_the_table_at_the_largest_p(self):
        """stream1 at c = 2**62 with every p <= 50 grows the table only past 50, yet k is c's bucket."""
        core._buckets_for.cache_clear()
        jobs = [ss.Job(i, 1 + i % 50, 1 + i % 2) for i in range(1, 201)]
        rep = ss.stream_known(jobs, ss.AlgoParams(epsilon=0.05, m=1, c=2**62, h=2))
        base, k = exact_base(0.05 / 3), rep.extras["k"]
        assert k == 2599 and base**k <= 2**62 < base ** (k + 1)
        fresh = ss.GeometricBuckets(0.05 / 3)
        fresh.index(50)
        assert ss.buckets_for(0.05 / 3)._table.tolist() == fresh._table.tolist()
        assert fresh._table.size == 238

    def test_confidence_scale_shrinks_sample(self):
        params = ss.AlgoParams(epsilon=0.5, m=1, c=1, h=1, n=10**7, confidence_scale=1 / 16)
        d = ss.derive_params(params, SAMPLE_BOUNDED)
        assert d.n_prime == 230073

    def test_confidence_scale_leaves_n0(self):
        base = ss.AlgoParams(epsilon=0.5, m=1, c=2, h=1, alpha=0.25, n=10**6)
        full = ss.derive_params(base, SAMPLE_ALPHA)
        scaled = ss.derive_params(replace(base, confidence_scale=1 / 16), SAMPLE_ALPHA)
        assert scaled.n0 == full.n0 == math.ceil(math.log(full.gamma) / math.log(1 - 0.25))
        assert scaled.n_prime < full.n_prime

    def test_alpha_one_needs_single_scale_draw(self):
        d = ss.derive_params(ss.AlgoParams(epsilon=0.5, m=1, c=2, h=1, alpha=1.0, n=100), SAMPLE_ALPHA)
        assert d.n0 == 1

    def test_alpha_sampling_n0_formula(self):
        # independent arithmetic: ceil(ln gamma / ln(1-alpha))
        d = ss.derive_params(ss.AlgoParams(epsilon=0.5, m=1, c=2, h=1, alpha=0.5, n=100), SAMPLE_ALPHA)
        assert d.n0 == math.ceil(math.log(d.gamma) / math.log(1 - 0.5))
        assert 0.5**d.n0 < d.gamma <= 0.5 ** (d.n0 - 1)

    def test_wmax_draw_count_example(self):
        # gamma = 0.01, alpha = 0.5 -> 7 draws, verified by direct powers
        n0 = math.ceil(math.log(0.01) / math.log(1 - 0.5))
        assert n0 == 7
        assert 0.5**7 < 0.01 <= 0.5**6

    def test_deterministic(self):
        params = ss.AlgoParams(epsilon=0.37, m=4, c=3, h=2, alpha=0.4, n=1234)
        assert ss.derive_params(params, SAMPLE_ALPHA) == ss.derive_params(params, SAMPLE_ALPHA)

    def test_alpha_sampling_includes_inverse_alpha_factor(self):
        base = dict(epsilon=0.5, m=1, c=2, h=1, n=10**6)
        d_half = ss.derive_params(ss.AlgoParams(alpha=0.5, **base), SAMPLE_ALPHA)
        d_full = ss.derive_params(ss.AlgoParams(alpha=1.0, **base), SAMPLE_ALPHA)
        # p scales with alpha, so beta^2 with alpha^2; with the extra 1/alpha
        # the ratio of sample sizes is alpha^-3
        assert d_half.n_prime == pytest.approx(8 * d_full.n_prime, rel=1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epsilon=0.0, m=1),
            dict(epsilon=1.0, m=1),
            dict(epsilon=-0.2, m=1),
            dict(epsilon=0.3, m=0),
            dict(epsilon=0.3, m=1, alpha=0.0),
            dict(epsilon=0.3, m=1, alpha=1.5),
            dict(epsilon=0.3, m=1, c=0),
            dict(epsilon=0.3, m=1, confidence_scale=0.0),
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ss.ParamError):
            ss.AlgoParams(**kwargs)

    def test_missing_mode_fields_rejected(self):
        with pytest.raises(ss.ParamError):
            ss.derive_params(ss.AlgoParams(epsilon=0.3, m=1), STREAM_KNOWN)
        with pytest.raises(ss.ParamError):
            ss.derive_params(ss.AlgoParams(epsilon=0.3, m=1, c=2, h=1), SAMPLE_ALPHA)  # no n

    def test_unknown_mode_rejected(self):
        with pytest.raises(ss.ParamError):
            ss.derive_params(ss.AlgoParams(epsilon=0.3, m=1), "stream9")

    @pytest.mark.parametrize("mode", sorted(ALGORITHMS))
    def test_mode_table_covers_every_algorithm_and_needs_exactly_its_fields(self, mode):
        """A mode is registered in the policy table as in the algorithm dicts, and requires just its NEEDS."""
        assert set(NEEDS) == set(ALGORITHMS)
        assert set(GIVEN) <= set(NEEDS) and set(CAPPED) <= set(NEEDS)
        full = ss.AlgoParams(epsilon=0.3, m=1, c=2, h=2, n=100, alpha=0.5)
        for name in NEEDS[mode]:
            with pytest.raises(ss.ParamError, match=f"parameter '{name}' is required"):
                ss.derive_params(replace(full, **{name: None}), mode)
        others = {name: None for name in ("c", "h", "n") if name not in NEEDS[mode]}
        assert ss.derive_params(replace(full, **others), mode) is not None
        with pytest.raises(ss.ParamError, match="^unknown algorithm mode 'stream9'$"):
            ss.derive_params(full, "stream9")


# PAPER.md's machine bounds, in exact arithmetic, as functions of (n, h, c, alpha, epsilon)
PAPER_BOUNDS = {
    STREAM_KNOWN: lambda n, h, c, a, e: 2 * n * e / (3 * h * c),
    STREAM_UNKNOWN: lambda n, h, c, a, e: 2 * n * e / (3 * h * c),
    STREAM_ALPHA_KNOWN: lambda n, h, c, a, e: 2 * a * n * e / (3 * (h + 1) * c),
    STREAM_ALPHA_UNKNOWN: lambda n, h, c, a, e: 2 * a * n * e / (3 * (h + 1) * c),
    SAMPLE_BOUNDED: lambda n, h, c, a, e: n * e / (20 * h * c),
    SAMPLE_ALPHA: lambda n, h, c, a, e: a * n * e / (20 * c * c * h),
}


def _frontier(mode: str, n: int, h: int, c: int) -> int:
    """The largest m that PAPER.md's bound allows at epsilon = alpha = 1/2."""
    return math.floor(PAPER_BOUNDS[mode](n, h, c, Fraction(1, 2), Fraction(1, 2)))


class TestMachineBound:
    """At epsilon = alpha = 1/2 both sides of each bound are exact in floats, so the frontier is exact."""

    def test_every_mode_has_a_paper_bound(self):
        assert set(PAPER_BOUNDS) == set(ALGORITHMS)

    @pytest.mark.parametrize("n,h,c", [(1200, 1, 1), (6000, 3, 2), (99_991, 7, 5), (10**6, 2, 3)])
    @pytest.mark.parametrize("mode", sorted(PAPER_BOUNDS))
    def test_true_at_the_frontier_and_false_one_machine_past_it(self, mode, n, h, c):
        m = _frontier(mode, n, h, c)
        assert m >= 1
        assert machine_bound_met(mode, m, n, h, c, 0.5, 0.5)
        assert not machine_bound_met(mode, m + 1, n, h, c, 0.5, 0.5)

    def test_readme_quick_start_is_met_in_floats(self):
        """2.0*3000*0.3 rounds to exactly 1800.0, so m = 200 is met; the exact bound at the double 0.3 is below 200."""
        assert machine_bound_met(STREAM_KNOWN, 200, 3000, 3, 1, 1.0, 0.3)
        assert not machine_bound_met(STREAM_KNOWN, 201, 3000, 3, 1, 1.0, 0.3)
        assert PAPER_BOUNDS[STREAM_KNOWN](3000, 3, 1, 1, Fraction(0.3)) < 200

    @pytest.mark.parametrize("mode", sorted(PAPER_BOUNDS))
    def test_a_run_flips_at_the_frontier(self, mode):
        """1,200 unit jobs at depth 1 (observed n = 1200, h = 1, c = 1): met at the frontier, not one past it."""
        n = 1200
        m = _frontier(mode, n, 1, 1)
        met = []
        for machines in (m, m + 1):
            params = ss.AlgoParams(epsilon=0.5, m=machines, c=1, h=1, n=n, alpha=0.5)
            if mode in SAMPLING_ALGORITHMS:
                report = SAMPLING_ALGORITHMS[mode](ss.ChainAccess(m=1, q=n, h=1), params)
            else:
                report = STREAMING_ALGORITHMS[mode](ss.chain(m=1, q=n, h=1).chunks(with_depth=mode in GIVEN), params)
            met.append(report.guarantee_condition_met)
        assert met == [True, False]


class TestBucketIndex:
    def test_p_one_is_bucket_zero(self):
        for delta in (0.5, 0.1, 0.025, 0.2):
            assert ss.buckets_for(delta).index(1) == 0

    def test_examples_verified_by_multiplication(self):
        assert ss.buckets_for(0.5).index(2) == 1
        b = exact_base(0.5)
        assert b**1 <= 2 < b**2

        assert ss.buckets_for(0.1).index(2) == 7
        b = exact_base(0.1)
        assert b**7 <= 2 < b**8

    def test_rejects_nonpositive(self):
        with pytest.raises(ss.ParamError):
            ss.buckets_for(0.1).index(0)
        with pytest.raises(ss.ParamError):
            ss.GeometricBuckets(0.0)

    @settings(max_examples=400, deadline=None)
    @given(
        p=st.integers(min_value=1, max_value=10**6),
        delta=st.sampled_from([0.5, 0.1, 0.025]),
    )
    def test_defining_inequality_exact(self, p, delta):
        u = ss.buckets_for(delta).index(p)
        b = exact_base(delta)
        assert b**u <= p < b ** (u + 1)

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.integers(min_value=1, max_value=10**6),
        delta=st.sampled_from([0.5, 0.1, 0.025, 0.14]),
    )
    def test_scalar_and_table_routes_agree(self, p, delta):
        import numpy as np

        gb = ss.buckets_for(delta)
        u = gb.index(p)
        b = exact_base(delta)
        assert b**u <= p < b ** (u + 1)
        assert gb.index_array(np.array([p, p, 1]))[0] == u

    @pytest.mark.parametrize("delta", [0.1, 0.3 / 3, 0.05 / 20])
    def test_routes_agree_next_to_int64_limit(self, delta):
        import numpy as np

        lo = 2**63 - 2**20
        rng = np.random.default_rng(0)
        p = np.concatenate([[lo, 2**63 - 1], lo + rng.integers(0, 2**20, size=500)])
        gb = ss.GeometricBuckets(delta)  # the table ends at its last bound below 2**63
        assert gb.index_array(p).tolist() == [gb.index(int(x)) for x in p]

    def test_dense_range_small(self):
        # every integer up to 2048, all three deltas, exact check
        for delta in (0.5, 0.1, 0.025):
            b = exact_base(delta)
            gb = ss.buckets_for(delta)
            u_prev = 0
            for p in range(1, 2049):
                u = gb.index(p)
                assert u >= u_prev  # monotone in p
                u_prev = u
                assert b**u <= p < b ** (u + 1)

    @settings(max_examples=200, deadline=None)
    @given(delta=st.sampled_from([0.1, 0.05 / 3, 1e-4]), data=st.data())
    def test_array_route_matches_bisection(self, delta, data):
        """`index_array`'s float estimate and two steps give the bisection's bucket, at and next to every kind of edge."""
        gb = ss.buckets_for(delta)
        top = gb.index(2**63 - 1)
        edges = [gb.bound(u) + d for u in data.draw(st.lists(st.integers(0, top), max_size=20)) for d in (-1, 0, 1)]
        near_2_53 = [2**53 + d for d in data.draw(st.lists(st.integers(-4, 4), max_size=5))]
        p = [x for x in edges + near_2_53 + [2**63 - 1, 1] if 1 <= x < 2**63]
        p = sorted(p) if data.draw(st.booleans()) else data.draw(st.permutations(p))
        assert gb.index_array(np.array(p, dtype=np.int64)).tolist() == [gb.index(x) for x in p]

    @pytest.mark.parametrize("delta", [0.1, 0.05 / 3, 1e-4])
    def test_array_route_on_a_two_entry_table(self, delta):
        gb = ss.GeometricBuckets(delta)
        assert gb.index_array(np.ones(5, dtype=np.int64)).tolist() == [0] * 5
        assert gb._table.tolist() == [1, 2]  # bounds 0 and 1 only


class TestFloorLog:
    def test_capped_window_bounds(self):
        gb = ss.buckets_for(0.1)
        assert gb.floor_log(100, 10 * 10) == 0  # p_max/n^2 = 1
        assert gb.floor_log(100) == 48
        b = exact_base(0.1)
        assert b**48 <= 100 < b**49

    def test_negative_logs(self):
        gb = ss.buckets_for(0.1)
        u = gb.floor_log(1, 2)  # log of 1/2 is negative
        b = exact_base(0.1)
        assert b**u <= Fraction(1, 2) < b ** (u + 1)

    def test_fraction_form(self):
        gb = ss.buckets_for(0.025)
        u = gb.floor_log(10**7, 40)  # an unreduced fraction
        b = exact_base(0.025)
        assert b**u <= Fraction(10**7, 40) < b ** (u + 1)


    # the stream (epsilon/3) and sampling (epsilon/20) deltas of three epsilons
    DELTAS = [eps / div for eps in (0.3, 0.1, 0.05) for div in (3.0, 20.0)]

    @staticmethod
    def check_against_fraction(num, den, delta):
        u = ss.GeometricBuckets(delta).floor_log(num, den)
        b = exact_base(delta)
        assert b**u <= Fraction(num, den) < b ** (u + 1)

    @settings(max_examples=300, deadline=None)
    @given(
        num=st.integers(min_value=1, max_value=10**15),
        den=st.integers(min_value=1, max_value=10**15),
        delta=st.sampled_from(DELTAS),
    )
    def test_matches_fraction_reference(self, num, den, delta):
        self.check_against_fraction(num, den, delta)

    @settings(max_examples=100, deadline=None)
    @given(
        num=st.integers(min_value=2**53, max_value=2**64),
        den=st.integers(min_value=1, max_value=1000),
        delta=st.sampled_from(DELTAS),
    )
    def test_quotients_past_float_precision(self, num, den, delta):
        self.check_against_fraction(num, den, delta)

    @settings(max_examples=300, deadline=None)
    @given(
        u=st.integers(min_value=-300, max_value=3000),
        den=st.integers(min_value=1, max_value=10**15),
        offset=st.integers(min_value=-1, max_value=1),
        delta=st.sampled_from(DELTAS),
    )
    def test_integers_next_to_a_power(self, u, den, offset, delta):
        # num straddles base**u * den, where the float estimate is least sure
        edge = math.ceil(exact_base(delta) ** u * den)
        self.check_against_fraction(max(1, edge + offset), den, delta)

    def test_table_bounds_are_ceilings_of_powers(self):
        # boundary u of the shift-built table is ceil(base**u), the smallest
        # integer p with base**u <= p (bucket u is empty when two agree)
        gb = ss.GeometricBuckets(0.005)
        b = exact_base(0.005)
        want = []
        power = Fraction(1)
        for _ in range(2001):
            want.append(math.ceil(power))
            power *= b
        gb.index(want[-1])
        assert gb._table[:2001].tolist() == want

    # 1.0 and 3.0 give integer bases: their fixed-point fraction is always 0, so
    # every boundary comes from the exact fallback
    TABLE_DELTAS = [0.3 / 3, 0.05 / 3, 0.005, 0.14, 0.5 / 20, 1.0, 3.0]

    @settings(max_examples=200, deadline=None)
    @given(delta=st.sampled_from(TABLE_DELTAS), data=st.data())
    def test_fixed_point_table_is_exact(self, delta, data):
        # a fresh table grown in two steps, to a drawn p and then to the int64 edge,
        # checked at a drawn boundary, at its last one and at the first one past it
        gb = ss.GeometricBuckets(delta)
        gb.index(data.draw(st.integers(min_value=1, max_value=2**63)))
        gb.index(2**63 - 1)
        last = gb._table.size - 1
        assert gb._full and gb._table[last] <= 2**63 - 1 < gb.bound(last + 1)
        for u in (data.draw(st.integers(min_value=0, max_value=last)), last, last + 1):
            assert gb.bound(u) == math.ceil(exact_base(delta) ** u)

    def test_threads_extending_one_table_agree_with_one_thread(self):
        # CLI trials run on threads and share `buckets_for(delta)`; thread
        # switches every microsecond land inside the extension loop
        want = ss.GeometricBuckets(0.005)
        want.index(10**12)
        probes = np.array([1, 2, 10**6, 10**12], dtype=np.int64)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                gb = ss.GeometricBuckets(0.005)
                start = threading.Barrier(4)

                def extend(gb=gb, start=start):
                    start.wait()
                    return gb.index(10**12), gb.index_array(probes).tolist()

                with ThreadPoolExecutor(max_workers=4) as pool:
                    got = [f.result() for f in [pool.submit(extend) for _ in range(4)]]
                assert gb._table.tolist() == want._table.tolist()
                assert gb._full == want._full
                assert got == [(want.index(10**12), want.index_array(probes).tolist())] * 4
        finally:
            sys.setswitchinterval(old)


def exact_bounds(delta: float, count: int) -> list[int]:
    """ceil(base**u) for u < count, from exact integer powers of the base's numerator (its denominator is 2**s)."""
    base = exact_base(delta)
    s = base.denominator.bit_length() - 1
    power, out = 1, []
    for u in range(count):
        out.append(-((-power) >> (s * u)))
        power *= base.numerator
    return out


class TestFloatRoute:
    """Bounds below `FLOAT_TOP` come from float powers checked against an error band, past it from a fixed-point power."""

    TOP = int(FLOAT_TOP)

    @pytest.mark.parametrize("delta", [0.1, 0.05 / 3, 0.005])
    @pytest.mark.parametrize("start", [1, TOP - 1, TOP, TOP + 1])
    def test_handover_at_the_top(self, delta, start, monkeypatch):
        """A table grown in steps across the top, from p = 1 or one of top - 1, top, top + 1, is exact throughout."""
        seen = []
        fixed_power = ss.GeometricBuckets._fixed_power
        monkeypatch.setattr(ss.GeometricBuckets, "_fixed_power", lambda gb, u: seen.append(u) or fixed_power(gb, u))
        gb = ss.GeometricBuckets(delta)
        end = gb._float_end
        for p in sorted({start, self.TOP - 1, self.TOP, self.TOP + 1, 2**40}):
            if p >= start:
                seen.clear()
                size = gb._table.size
                assert gb.index(p) == bisect.bisect_right(exact_bounds(delta, gb._table.size), p) - 1
                assert gb._table[-1] > p and gb._table[-2] <= p  # the table ends at the first bound past p
                if gb._table.size > max(size, end):  # grown past the float route: seeded once, at its end
                    assert seen[-1] == max(size, end) - 1 and all(u < end for u in seen[:-1])
                else:  # the float route alone, settling its entries in the band
                    assert all(size <= u < end for u in seen)
        assert gb._table.tolist() == exact_bounds(delta, gb._table.size)

    @pytest.mark.parametrize("delta", [1.0, 3.0])
    def test_integer_bases_take_the_exact_route(self, delta, monkeypatch):
        """Every power of an integer base is an integer, so every float-route estimate falls in the band."""
        seen = []
        fixed_power = ss.GeometricBuckets._fixed_power
        monkeypatch.setattr(ss.GeometricBuckets, "_fixed_power", lambda gb, u: seen.append(u) or fixed_power(gb, u))
        gb = ss.GeometricBuckets(delta)
        gb.index(2**63 - 1)
        assert gb._table.tolist() == [int(1 + delta) ** u for u in range(gb._table.size)]
        assert gb._table[gb._float_end - 1] == FLOAT_TOP  # the float route ends at the top
        assert seen[: gb._float_end - 1] == list(range(1, gb._float_end))  # and settled each entry past its estimate

    @pytest.mark.parametrize("delta", [0.05 / 3, 1.0])
    def test_bound_leaves_a_fresh_table_alone(self, delta, monkeypatch):
        """`bound(u)` on a fresh table gives the exact bounds, up to past the top, and grows no table."""
        asked = []
        extend = ss.GeometricBuckets._extend_past
        monkeypatch.setattr(ss.GeometricBuckets, "_extend_past", lambda gb, p: asked.append(p) or extend(gb, p))
        end = ss.GeometricBuckets(delta)._float_end
        want = exact_bounds(delta, end + 41)
        for u in [0, 1, 2, 5, end // 2, end - 1, end, end + 1, end + 40]:
            gb = ss.GeometricBuckets(delta)
            assert gb.bound(u) == want[u]
            assert asked == [] and gb._table.tolist() == [1]

    def test_small_delta(self):
        """delta = 1e-4: 690k bounds to past the top, a hundred or so in the band; checked near the top and at random."""
        delta, gb = 1e-4, ss.GeometricBuckets(1e-4)
        gb.index(2**20)
        gb.index(self.TOP + 1)
        bounds, rng = gb._table.tolist(), np.random.default_rng(4)
        checked = list(range(len(bounds) - 200, len(bounds))) + rng.integers(0, len(bounds), size=200).tolist()
        with mpmath.workprec(320):
            base = mpmath.mpf(1) + mpmath.mpf(delta)  # exact: the double 1e-4 has 53 bits
            for u in checked:
                power = mpmath.power(base, u)  # within 2**-280 of base**u, relative
                assert abs(power - mpmath.nint(power)) > 2.0**-200  # so its ceiling is the exact one
                assert bounds[u] == int(mpmath.ceil(power))
        assert gb._table.dtype == np.int64

    def test_exp_within_the_assumed_ulps(self):
        """np.exp over the float route's domain [0, ln FLOAT_TOP], held to 40-digit mpmath: within the 4 ulp assumed."""
        rng = np.random.default_rng(5)
        ln_top = math.log(FLOAT_TOP)
        y = np.concatenate([rng.uniform(0.0, ln_top, size=20_000),
                            np.arange(int(ln_top / math.log1p(0.05 / 3)) + 1) * math.log1p(0.05 / 3)])
        est = np.exp(y)
        with mpmath.workdps(40):
            worst = max(abs(mpmath.mpf(e) - mpmath.exp(mpmath.mpf(x))) / float(np.spacing(e))
                        for x, e in zip(y.tolist(), est.tolist()))
        assert worst <= 4.0

    @pytest.mark.parametrize("delta", [0.1, 0.05 / 3, 0.01 / 3, 0.05 / 20, 1e-4, 1.0])
    def test_log1p_within_the_assumed_ulps(self, delta):
        with mpmath.workdps(40):
            exact = mpmath.log(1 + mpmath.mpf(delta))
            assert abs(mpmath.mpf(math.log1p(delta)) - exact) <= 4 * math.ulp(math.log1p(delta))

    @pytest.mark.parametrize("u", [0, 1, 2, 3, 100, 1201, 5001])
    @pytest.mark.parametrize("delta", [0.05 / 3, 1e-4, 1e-300, 3.0])
    def test_fixed_power_brackets_the_power(self, delta, u):
        gb = ss.GeometricBuckets(delta)
        x, err = gb._fixed_power(u)
        base = exact_base(delta)
        exact = base.numerator**u << core.FIX_BITS
        den = base.denominator**u
        assert x * den <= exact <= (x + err) * den
        assert err << core.FIX_BITS <= 4 * (u + 1) * x  # relative error under 4 * (u + 1) * 2**-FIX_BITS


class TestInt64Edge:
    """The table ends at its last bound below 2**63; past it `index` is `floor_log` and `bound` a fixed-point power."""

    DELTAS = [0.1, 0.05 / 3, 0.005, 0.14, 1.0, 3.0]

    @pytest.mark.parametrize("delta", DELTAS)
    def test_table_ends_at_the_last_int64_bound(self, delta):
        gb = ss.GeometricBuckets(delta)
        last = gb.index(2**63 - 1)
        want = exact_bounds(delta, last + 2)
        assert want[last] <= 2**63 - 1 < want[last + 1]  # the last bucket
        assert gb._full and gb._table.tolist() == want[:-1]
        top = np.array([2**63 - 1], dtype=np.int64)
        assert gb.index_array(top).tolist() == ss.GeometricBuckets(delta).index_array(top).tolist() == [last]
        assert gb.index(2**63 - 1) == last and gb._table.size == last + 1  # a full table grows no further

    @pytest.mark.parametrize("delta", DELTAS)
    def test_first_bound_past_int64(self, delta):
        """`bound` of the first bucket past the table is ceil(base**u), on a full table and on a fresh one."""
        full = ss.GeometricBuckets(delta)
        u = full.index(2**63 - 1) + 1
        want = math.ceil(exact_base(delta) ** u)
        assert want > 2**63 - 1
        assert full.bound(u) == ss.GeometricBuckets(delta).bound(u) == want
        assert full.bound(u + 7) == math.ceil(exact_base(delta) ** (u + 7))

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("p", [2**63, 2**63 + 1, 2**70])
    def test_index_past_int64_is_floor_log(self, delta, p):
        gb = ss.GeometricBuckets(delta)
        u = gb.index(p)
        assert u == gb.floor_log(p)
        assert exact_base(delta) ** u <= p < exact_base(delta) ** (u + 1)
        assert gb._table.size == 1  # past the table, so it is not grown


class TestFloorLogArray:
    DELTAS = TestFloorLog.DELTAS + [1.0]

    @settings(max_examples=300, deadline=None)
    @given(
        den=st.integers(min_value=1, max_value=2**62),
        delta=st.sampled_from(DELTAS),
        data=st.data(),
    )
    def test_matches_scalar_floor_log(self, den, delta, data):
        # numerators next to base**u * den, where the float estimate is least
        # sure, mixed with arbitrary ones up to 2**63 - 1
        gb = ss.GeometricBuckets(delta)
        top = 2**63 - 1
        lo, hi = -gb.floor_log(den), gb.floor_log(top, den)
        nums = []
        for u, offset in data.draw(st.lists(st.tuples(st.integers(lo, hi), st.integers(-2, 2)), max_size=20)):
            nums.append(min(max(1, math.ceil(exact_base(delta) ** u * den) + offset), top))
        nums += data.draw(st.lists(st.integers(min_value=1, max_value=top), max_size=10))
        got = gb.floor_log_array(np.array(nums, dtype=np.int64), den)
        assert got.dtype == np.int64
        assert got.tolist() == [gb.floor_log(num, den) for num in nums]

    def test_empty_array(self):
        got = ss.buckets_for(0.1).floor_log_array(np.empty(0, dtype=np.int64), 7)
        assert got.dtype == np.int64 and got.size == 0

    def test_rejects_nonpositive(self):
        gb = ss.buckets_for(0.1)
        with pytest.raises(ss.ParamError):
            gb.floor_log_array(np.array([5, 0, 3]))
        with pytest.raises(ss.ParamError):
            gb.floor_log_array(np.array([5]), 0)


def test_snapped_floor():
    assert snapped_floor(7.2) == 7
    assert snapped_floor(5.0) == 5
    assert snapped_floor(4.9999999999) == 5  # within 1e-9 of the integer above
    assert snapped_floor(4.99) == 4
