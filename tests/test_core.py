"""Parameter derivation and geometric bucketing."""

import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schedsketch as ss
from schedsketch.core import SAMPLE_ALPHA, SAMPLE_BOUNDED, STREAM_KNOWN, snapped_floor


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
        gb = ss.GeometricBuckets(delta)  # the table's last bound lies past 2**63 - 1
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
        assert gb._bounds[:2001] == want


def test_snapped_floor():
    assert snapped_floor(7.2) == 7
    assert snapped_floor(5.0) == 5
    assert snapped_floor(4.9999999999) == 5  # within 1e-9 of the integer above
    assert snapped_floor(4.99) == 4
