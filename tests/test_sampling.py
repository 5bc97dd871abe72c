"""Randomized sampling algorithms: accounting, exactness, statistics."""

import math

import numpy as np
import pytest

import schedsketch as ss
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

    def test_rejects_zero_draws(self):
        with pytest.raises(ss.InputContractError):
            ss.estimate_counts(ss.ChainAccess(1, 1, 1), 0, ss.buckets_for(0.025), np.random.default_rng(0))


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
