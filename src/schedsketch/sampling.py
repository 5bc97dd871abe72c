"""Randomized sublinear-time approximation via uniform job sampling.

Instead of reading every job, draw n' uniform samples (with
replacement), bucket them exactly like the streaming algorithms, scale
the counts by n/n', and drop groups whose estimate is too small to be
statistically reliable (at most 2*tau, where tau = n * sampling-mass
threshold).  The surviving estimated sketch feeds the same
rounded-load arithmetic (`sketch.bucket_loads`) as the streaming side
and additionally yields an estimated schedule sketch whose intervals
are padded for the estimation error.

Both schemes are one sampler (`_sample`) with one of two policies,
fixed by the mode before any draw:

* *bounded* (`rand_approx_bounded`, sample1): every job is within a
  factor c, so a sampled job with p > c breaks the contract; buckets
  run from 0 to k, with the top pinned to c;
* *alpha* (`rand_approx_alpha`, sample2): only the largest alpha*n jobs
  need be within a factor c.  n0 draws first estimate the scale w0 as
  their largest p; the main sample is then filtered at delta*w0/n and
  bucketed from there up to c*w0, with the top pinned to c*w0.  Groups
  above c*w0, where w0 underestimated the top, are dropped and counted.

Access to jobs goes through a `SampleAccess`: either materialized
arrays or an implicit family whose ``fetch`` is a pure function of the
job id, so a 10^7-job instance costs O(1) memory.  Everything is
deterministic under (instance, params, seed).

When the derived n' reaches n, sampling degenerates to reading all n
jobs exactly once; the estimates are then exact and the thresholding
still applies.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Protocol

import numpy as np

from .core import (
    SAMPLE_ALPHA,
    SAMPLE_BOUNDED,
    AlgoParams,
    GeometricBuckets,
    buckets_for,
    derive_params,
)
from .errors import InputContractError
from .model import Instance, RunReport, ScheduleSketch
from .sketch import bucket_loads, pair_counts
from .streaming import totals

_CHUNK = 1 << 20


class SampleAccess(Protocol):
    """Random access to jobs by id (1-based), possibly implicit."""

    n: int

    def fetch(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (p, depth) arrays for the given job ids."""
        ...


class ArrayAccess:
    """Materialized instance backing."""

    def __init__(self, inst: Instance):
        if inst.depth is None:
            raise InputContractError("sampling needs job depths; compute them first")
        self.inst = inst
        self.n = inst.n
        self._p = inst.p
        self._depth = inst.depth

    def fetch(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = ids - 1
        return self._p[idx], self._depth[idx]


class ChainAccess:
    """Implicit chain family: m*q chains of h unit jobs, O(1) memory."""

    def __init__(self, m: int, q: int, h: int):
        self.m = m
        self.q = q
        self.h = h
        self.n = m * q * h
        self.cstar = q * h

    def fetch(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        depth = (ids - 1) % self.h + 1
        return np.ones(ids.size, dtype=np.int64), depth.astype(np.int64)


class TwoValueAccess:
    """Implicit two-valued family: ids <= n_big get p_big, the rest p_small.

    Depth is 1 everywhere, so with m = 1 the optimum is exactly the
    total processing time — a closed form the statistical tests rely on.
    """

    def __init__(self, n: int, n_big: int, p_big: int, p_small: int):
        if not (1 <= n_big <= n) or p_big < p_small or p_small < 1:
            raise InputContractError("need 1 <= n_big <= n and p_big >= p_small >= 1")
        self.n = n
        self.n_big = n_big
        self.p_big = p_big
        self.p_small = p_small

    @property
    def total_p(self) -> int:
        return self.n_big * self.p_big + (self.n - self.n_big) * self.p_small

    def fetch(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p = np.where(ids <= self.n_big, self.p_big, self.p_small).astype(np.int64)
        return p, np.ones(ids.size, dtype=np.int64)


class CountingAccess:
    """Wraps an access and counts every id fetched (the sublinearity meter)."""

    def __init__(self, inner: SampleAccess):
        self._inner = inner
        self.n = inner.n
        self.ids_fetched = 0
        self.calls = 0

    def fetch(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self.ids_fetched += int(ids.size)
        self.calls += 1
        return self._inner.fetch(ids)


def estimate_counts(
    access: SampleAccess,
    n_draws: int,
    buckets: GeometricBuckets,
    rng: np.random.Generator,
    min_p: float | None = None,
    p_cap: int | None = None,
    h_cap: int | None = None,
) -> tuple[dict[tuple[int, int], int], int]:
    """Bucketed counts of n_draws uniform samples (or a full scan).

    Exactly ``n_draws`` draws are performed unless ``n_draws >= n``, in
    which case every job is read once instead.  Jobs with p <= min_p
    are discarded after being drawn: they reduce the counted jobs, not
    the number of draws.  Returns ({(d, u): count}, draws_performed).
    """
    if n_draws < 1:
        raise InputContractError(f"need at least one draw, got {n_draws}")
    n = access.n
    full_scan = n_draws >= n
    draws = n if full_scan else n_draws
    counts: dict[tuple[int, int], int] = {}
    done = 0
    while done < draws:
        take = min(_CHUNK, draws - done)
        if full_scan:
            ids = np.arange(done + 1, done + take + 1, dtype=np.int64)
        else:
            ids = rng.integers(1, n + 1, size=take, dtype=np.int64)
        p, depth = access.fetch(ids)
        done += take
        if p_cap is not None and p.size and int(p.max()) > p_cap:
            raise InputContractError(f"sampled job has p={int(p.max())} > c={p_cap}")
        if h_cap is not None and depth.size and int(depth.max()) > h_cap:
            raise InputContractError(f"sampled job has depth {int(depth.max())} > h={h_cap}")
        if min_p is not None:
            keep = p > min_p
            p, depth = p[keep], depth[keep]
        if p.size == 0:
            continue
        for u, d, cnt in zip(*pair_counts(buckets.index_array(p), depth)):
            counts[d, u] = counts.get((d, u), 0) + cnt
    return counts, draws


def estimate_wmax(access: SampleAccess, n0: int, rng: np.random.Generator) -> int:
    """Largest processing time among n0 uniform draws."""
    if n0 < 1:
        raise InputContractError(f"need at least one draw, got {n0}")
    ids = rng.integers(1, access.n + 1, size=n0, dtype=np.int64)
    p, _ = access.fetch(ids)
    return int(p.max())


def _scaled_estimates(
    counts: dict[tuple[int, int], int], n: int, draws: int, tau: float
) -> dict[tuple[int, int], float]:
    """ehat = n * count/draws, keeping only groups with ehat > 2*tau."""
    out = {}
    for key, cnt in counts.items():
        ehat = n * cnt / draws
        if ehat > 2.0 * tau:
            out[key] = ehat
    return out


def _sample(access: SampleAccess, params: AlgoParams, mode: str, tight: bool) -> RunReport:
    """The sampler behind both modes; see the module docstring.

    The mode fixes the policy, *bounded* (sample1) or *alpha* (sample2),
    before any draw.
    """
    params.require("c", "h")
    alpha = mode == SAMPLE_ALPHA
    pr = replace(params, n=access.n)
    drv = derive_params(pr, mode)
    gb = buckets_for(drv.delta)
    rng = np.random.default_rng(pr.seed)
    if alpha:
        n0 = drv.n0
        w0 = estimate_wmax(access, n0, rng)  # the n0 draws come before the main sample
        top = pr.c * w0
        counts, draws = estimate_counts(
            access, drv.n_prime, gb, rng, min_p=drv.delta * w0 / pr.n, h_cap=pr.h
        )
        num, den = drv.delta.as_integer_ratio()
        u_lo, u_hi = gb.floor_log(num * w0, den * pr.n), gb.floor_log(top)
        pad_w0 = math.floor(drv.delta * w0)
        # machine bound m <= n*alpha*eps / (20*c^2*h)
        ok = 20.0 * pr.m * pr.c * pr.c * pr.h <= pr.n * pr.alpha * pr.epsilon
    else:
        n0, top, u_lo, u_hi, pad_w0 = 0, pr.c, 0, drv.k, 0
        counts, draws = estimate_counts(access, drv.n_prime, gb, rng, p_cap=pr.c, h_cap=pr.h)
        ok = 20.0 * pr.m * pr.h * pr.c <= pr.n * pr.epsilon  # machine bound m <= n*eps / (20*h*c)
    kept = _scaled_estimates(counts, pr.n, draws, drv.tau)
    inside = [(u, d, ehat) for (d, u), ehat in kept.items() if u <= u_hi]  # w0 can underestimate the top
    dropped_high = len(kept) - len(inside)  # groups above c*w0 fall outside
    loads = bucket_loads(inside, gb, u_lo, u_hi, top, pr.h) / pr.m
    pad_noise = math.floor(3.0 * drv.tau) * drv.k_eff * top + pad_w0
    A, times = totals(loads, top, tight, stretch=1.0 - drv.delta, slack=pad_noise)
    extras = {
        "n": pr.n,
        "delta": drv.delta,
        "n_prime": drv.n_prime,
        "n0": n0,
        "tau": drv.tau,
        "cap_triggered": drv.n_prime >= pr.n,
        "estimates": kept,
    }
    if alpha:
        extras.update(w0=w0, dropped_above_top=dropped_high)
    return RunReport(
        algorithm=mode,
        A=A,
        schedule_sketch=ScheduleSketch(times, source=mode),
        sketch_node_count=len(kept),
        samples_drawn=n0 + draws,
        update_count=n0 + draws,
        params=pr,
        guarantee_condition_met=ok,
        extras=extras,
    )


def rand_approx_bounded(access: SampleAccess, params: AlgoParams, *, tight: bool = False) -> RunReport:
    """Sampling scheme for jobs within a factor c with known depths."""
    return _sample(access, params, SAMPLE_BOUNDED, tight)


def rand_approx_alpha(access: SampleAccess, params: AlgoParams, *, tight: bool = False) -> RunReport:
    """Sampling scheme when only the top alpha*n jobs are factor-c bounded.

    A first tiny sample estimates the scale w0 (with probability at
    least 1-gamma the true maximum is at most c*w0); the main sample is
    then filtered at delta*w0/n and bucketed between that filter and
    c*w0, with the top bucket pinned to c*w0.
    """
    return _sample(access, params, SAMPLE_ALPHA, tight)


SAMPLING_ALGORITHMS = {
    SAMPLE_BOUNDED: rand_approx_bounded,
    SAMPLE_ALPHA: rand_approx_alpha,
}
