"""Shared parameter handling and geometric bucketing.

Processing times are grouped into geometric buckets: bucket ``u`` holds
the integers ``p`` with ``(1+delta)**u <= p < (1+delta)**(u+1)``.  All
approximation error budgets flow from the single knob ``delta``, which
the streaming algorithms set to ``epsilon/3`` and the sampling
algorithms to ``epsilon/20``.

Powers of ``1+delta`` are irrational for the deltas we care about, so
bucket membership is never decided with floating point alone.  The
value ``1+delta`` (for the IEEE double ``delta``) is an exact rational
whose denominator is a power of two; `GeometricBuckets` keeps a table
of exact integer bucket boundaries, built with shifts, and answers
lookups by bisection, while `GeometricBuckets.floor_log` trusts a float
logarithm only where its error provably cannot change the floor and
decides the rest with exact integer comparisons.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ParamError

STREAM_KNOWN = "stream1"
STREAM_UNKNOWN = "stream2"
STREAM_ALPHA_KNOWN = "stream3"
STREAM_ALPHA_UNKNOWN = "stream4"
SAMPLE_BOUNDED = "sample1"
SAMPLE_ALPHA = "sample2"

STREVAL_MODES = (STREAM_KNOWN, STREAM_UNKNOWN, STREAM_ALPHA_KNOWN, STREAM_ALPHA_UNKNOWN)
SAMPLE_MODES = (SAMPLE_BOUNDED, SAMPLE_ALPHA)
ALL_MODES = STREVAL_MODES + SAMPLE_MODES

#: Absolute slack used when flooring real-valued interval lengths.  The
#: rounded processing times are irrational, so accumulated sums can sit
#: a few ulp below an integer they equal mathematically; values this
#: close to an integer are snapped up before flooring.
FLOOR_SNAP = 1e-9


def snapped_floor(x: float) -> int:
    """Floor ``x``, snapping values within `FLOOR_SNAP` of an integer upward."""
    return math.floor(x + FLOOR_SNAP)


def ceil_div(a: int, b: int) -> int:
    """Ceiling of ``a / b`` for positive integers, without floats."""
    return -(-a // b)


@dataclass(frozen=True)
class AlgoParams:
    """User-facing knobs shared by every algorithm.

    ``confidence_scale`` multiplies the main sample size n' of the
    randomized algorithms (not the few n0 draws that estimate w0); 1.0
    keeps the full worst-case constants, and tests use smaller values
    to trade success probability for runtime.
    """

    epsilon: float
    m: int
    c: int | None = None
    h: int | None = None
    alpha: float = 1.0
    n: int | None = None
    seed: int = 0
    confidence_scale: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ParamError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.m < 1:
            raise ParamError(f"m must be a positive integer, got {self.m}")
        if not (0.0 < self.alpha <= 1.0):
            raise ParamError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.c is not None and self.c < 1:
            raise ParamError(f"c must be a positive integer, got {self.c}")
        if self.h is not None and self.h < 1:
            raise ParamError(f"h must be a positive integer, got {self.h}")
        if self.n is not None and self.n < 1:
            raise ParamError(f"n must be a positive integer, got {self.n}")
        if not self.confidence_scale > 0.0:
            raise ParamError("confidence_scale must be positive")

    def require(self, *fields: str) -> None:
        for name in fields:
            if getattr(self, name) is None:
                raise ParamError(f"parameter {name!r} is required for this algorithm")


@dataclass(frozen=True)
class DerivedParams:
    """Constants derived from `AlgoParams` for one algorithm mode."""

    mode: str
    delta: float
    k: int | None = None
    k_eff: int | None = None
    gamma: float | None = None
    p: float | None = None
    beta: float | None = None
    n_prime: int | None = None
    n0: int | None = None
    tau: float | None = None


class GeometricBuckets:
    """Exact geometric bucket index for positive integers.

    The base is the exact rational value of ``1 + delta`` where
    ``delta`` is the given IEEE double.  Boundary ``u`` of the internal
    table is the smallest integer in bucket ``u``; the table grows
    lazily and lookups are a bisection, so per-call cost is O(log u).
    """

    def __init__(self, delta: float):
        if not (delta > 0.0) or not math.isfinite(delta):
            raise ParamError(f"delta must be a positive finite real, got {delta}")
        base = Fraction(1) + Fraction(delta)
        self.delta = delta
        self.base = float(base)
        self._bnum = base.numerator
        # a double is an integer times a power of two, so base == _bnum / 2**_shift
        self._shift = base.denominator.bit_length() - 1
        assert base.denominator == 1 << self._shift
        # 1+delta is exact, so log1p(delta) is its log to about 1 ulp;
        # log(self.base) would carry the rounding of self.base as well
        self._ln_base = math.log1p(delta)
        # _pnum == _bnum ** (len(_bounds) - 1), kept for cheap extension
        self._bounds: list[int] = [1]
        self._pnum = 1
        self._np_cache: np.ndarray | None = None

    def _extend_past(self, p: int) -> None:
        if self._bounds[-1] > p:
            return
        while self._bounds[-1] <= p:
            self._pnum *= self._bnum
            # ceil(_pnum / 2**(shift*u)) for the new boundary u
            self._bounds.append(-((-self._pnum) >> (self._shift * len(self._bounds))))
        self._np_cache = None

    def index(self, p: int) -> int:
        """Bucket of integer ``p >= 1``: the unique u with base**u <= p < base**(u+1)."""
        p = int(p)
        if p < 1:
            raise ParamError(f"processing time must be >= 1, got {p}")
        self._extend_past(p)
        return bisect_right(self._bounds, p) - 1

    def bound(self, u: int) -> int:
        """ceil(base**u) for u >= 0: every integer in bucket u is at least this."""
        while len(self._bounds) <= u:
            self._extend_past(self._bounds[-1])
        return self._bounds[u]

    def index_array(self, p: np.ndarray) -> np.ndarray:
        """Vectorized `index` for an integer array with entries >= 1."""
        if p.size == 0:
            return np.empty(0, dtype=np.int64)
        self._extend_past(int(p.max()))
        if self._np_cache is None:
            # a bound past int64 exceeds every entry, so leaving it out changes no index
            self._np_cache = np.array(self._bounds[: bisect_left(self._bounds, 2**63)], dtype=np.int64)
        return np.searchsorted(self._np_cache, p, side="right") - 1

    def pow_cmp(self, u: int, num: int, den: int = 1) -> int:
        """Sign of base**u - num/den, computed exactly."""
        if den <= 0 or num <= 0:
            raise ParamError("comparison target must be a positive rational")
        if u >= 0:
            lhs = self._bnum**u * den
            rhs = num << (self._shift * u)
        else:
            lhs = den << (self._shift * -u)
            rhs = num * self._bnum ** (-u)
        return (lhs > rhs) - (lhs < rhs)

    def floor_log(self, num: int, den: int = 1) -> int:
        """Largest integer u with base**u <= num/den (u may be negative)."""
        if num <= 0 or den <= 0:
            raise ParamError("floor_log argument must be a positive rational")
        # Error of est against t = ln(num/den) / ln(base), with eps = 2**-53
        # (1 ulp is at most 2*eps relative) and S = |ln num| + |ln den|:
        # - math.log rounds an int to 53 bits (eps absolute in the log), and
        #   past the float range sums log(mantissa) + e*log(2); with libm's
        #   log within 2 ulp, each log is off by at most 4*eps + 8*eps*|ln x|;
        # - the subtraction adds eps*S, so the numerator is off by 9*eps*(1+S);
        # - log1p of the exact 1+delta is off by 4*eps relative, the division
        #   by eps relative, which adds 5*eps*S / ln_base.
        # So |est - t| <= 15*eps*(1+S) / ln_base < 2**-49 * (1+S) / ln_base,
        # and the band is 2**11 times that.  When est - floor(est) (exact in
        # floats) keeps a band away from 0 and 1, t lies strictly between the
        # same two integers and floor(est) is the answer; else compare exactly.
        ln_num, ln_den = math.log(num), math.log(den)
        est = (ln_num - ln_den) / self._ln_base
        u = math.floor(est)
        band = 2.0**-38 * (1.0 + abs(ln_num) + abs(ln_den)) / self._ln_base
        if band < est - u < 1.0 - band:
            return u
        while self.pow_cmp(u, num, den) > 0:
            u -= 1
        while self.pow_cmp(u + 1, num, den) <= 0:
            u += 1
        return u


@lru_cache(maxsize=None)
def _buckets_for(delta: float) -> GeometricBuckets:
    return GeometricBuckets(delta)


def buckets_for(delta: float) -> GeometricBuckets:
    """Shared per-delta bucket table (bucket tables are append-only caches)."""
    return _buckets_for(float(delta))


def derive_params(params: AlgoParams, mode: str) -> DerivedParams:
    """Compute every derived constant an algorithm mode needs.

    Deterministic: equal inputs give equal outputs.  The sampling modes
    substitute ``k_eff = max(k, 1)`` wherever the sample-size formulas
    divide by k, which keeps them meaningful when c = 1 (k = 0) and only
    makes the sampling more conservative.
    """
    if mode not in ALL_MODES:
        raise ParamError(f"unknown algorithm mode {mode!r}")

    if mode in STREVAL_MODES:
        delta = params.epsilon / 3.0
        if mode == STREAM_KNOWN:
            params.require("c", "h")
            k = buckets_for(delta).index(params.c)
            return DerivedParams(mode=mode, delta=delta, k=k)
        if mode == STREAM_ALPHA_KNOWN:
            params.require("c", "h", "n")
        elif mode == STREAM_ALPHA_UNKNOWN:
            params.require("n")
        return DerivedParams(mode=mode, delta=delta)

    delta = params.epsilon / 20.0
    gb = buckets_for(delta)
    bounded = mode == SAMPLE_BOUNDED  # the alpha scheme's sizes with alpha = 1 and c in place of c^2
    params.require("c", "h", *(() if bounded else ("n",)))
    if bounded:
        k, alpha, c_pow = gb.index(params.c), 1.0, params.c
    else:
        num, den = delta.as_integer_ratio()
        k = gb.floor_log(params.c * params.n * den, num)  # floor_log(c*n / delta)
        alpha, c_pow = params.alpha, params.c**2
    k_eff = max(k, 1)
    gamma = 1.0 / (10.0 * params.h * k_eff)
    prob = 5.0 * alpha * delta / (2.0 * c_pow * params.h * k_eff * params.m)
    beta = delta * prob
    n_raw = (3.0 / (alpha * beta**2)) * math.log(2.0 / gamma)
    # n0 stays unscaled: it is a few dozen draws, and fewer can miss the
    # top alpha*n jobs, which then fall above c*w0 and are dropped
    n0 = None if bounded else 1 if alpha == 1.0 else math.ceil(math.log(gamma) / math.log1p(-alpha))
    n_prime = max(1, math.ceil(n_raw * params.confidence_scale))
    tau = None if params.n is None else params.n * prob
    return DerivedParams(
        mode=mode, delta=delta, k=k, k_eff=k_eff, gamma=gamma, p=prob, beta=beta, n_prime=n_prime, n0=n0, tau=tau
    )
