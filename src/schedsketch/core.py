"""Shared parameter handling and geometric bucketing.

Processing times are grouped into geometric buckets: bucket ``u`` holds
the integers ``p`` with ``(1+delta)**u <= p < (1+delta)**(u+1)``.  All
approximation error budgets flow from the single knob ``delta``, which
the streaming algorithms set to ``epsilon/3`` and the sampling
algorithms to ``epsilon/20``.

Powers of ``1+delta`` are irrational for the deltas we care about, so
bucket membership is never decided with floating point alone.  The
value ``1+delta`` (for the IEEE double ``delta``) is an exact rational
whose denominator is a power of two; `GeometricBuckets` keeps a table of
exact integer bucket boundaries, bisects it for one lookup, and steps an
array's float logarithms (each within a bucket) against it.  Below
`FLOAT_TOP` the table's boundaries come from float powers in one numpy
pass, each read off where the float's error bound cannot change the
ceiling; past it they come from a truncated fixed-point power whose
error is tracked.  A boundary that neither settles is computed exactly.
`GeometricBuckets.floor_log` (and `GeometricBuckets.floor_log_array`,
its form for an int64 array) trusts a float logarithm only where its
error provably cannot change the floor and decides the rest with exact
integer comparisons.
"""

from __future__ import annotations

import math
import threading
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

# The mode policy, the one place that tells the six modes apart.  GIVEN: the jobs carry
# their depths (else the arcs that follow them give them).  CAPPED: only the largest
# alpha*n jobs need be within a factor c.  SAMPLED: the mode draws jobs instead of
# reading a stream.  NEEDS: the parameters each mode requires.
GIVEN = (STREAM_KNOWN, STREAM_ALPHA_KNOWN, SAMPLE_BOUNDED, SAMPLE_ALPHA)
CAPPED = (STREAM_ALPHA_KNOWN, STREAM_ALPHA_UNKNOWN, SAMPLE_ALPHA)
SAMPLED = (SAMPLE_BOUNDED, SAMPLE_ALPHA)
NEEDS = {
    STREAM_KNOWN: ("c", "h"),
    STREAM_UNKNOWN: (),
    STREAM_ALPHA_KNOWN: ("c", "h", "n"),
    STREAM_ALPHA_UNKNOWN: ("n",),
    SAMPLE_BOUNDED: ("c", "h"),
    SAMPLE_ALPHA: ("c", "h", "n"),
}

#: Absolute slack used when flooring real-valued interval lengths.  The
#: rounded processing times are irrational, so accumulated sums can sit
#: a few ulp below an integer they equal mathematically; values this
#: close to an integer are snapped up before flooring.
FLOOR_SNAP = 1e-9

#: Fraction bits of the fixed-point powers that build the bucket table past `FLOAT_TOP`.
FIX_BITS = 160

#: Bucket bounds below this come from float powers, checked against an error band.
FLOAT_TOP = 2.0**36


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
    table is ceil(base**u), the smallest integer in bucket ``u``; the
    table grows lazily, `index` is a bisection, O(log u) a call, and
    `index_array` takes O(1) an entry.  Growth takes a lock and
    publishes a new table, so threads (the CLI's trials) may share one.

    Below `FLOAT_TOP` the table grows by one numpy pass of float powers
    exp(u * log1p(delta)): a boundary is the float's floor plus one where
    the float's error band cannot change the ceiling, else it is settled
    by `_fixed_power`, a fixed-point power by squaring.  Past the top a
    fixed-point power (``_fixed``: base**u * 2**FIX_BITS, truncated after
    each multiplication by the base, and a bound on its error) steps up
    one boundary at a time.  Where neither error bound settles the
    ceiling, the boundary is computed exactly (see `_ceil`).
    """

    def __init__(self, delta: float):
        if not 0.0 < delta < 2.0**62:  # so bound 1, ceil(1+delta), lies below 2**63
            raise ParamError(f"delta must be a positive real below 2**62, got {delta}")
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
        # the float route gives bounds 1 .. _float_end - 1, those with base**u <= FLOAT_TOP (to a rounding)
        self._float_end = int(math.log(FLOAT_TOP) / self._ln_base) + 1
        self._bounds: list[int] = [1]
        # (x, err) with x <= base**u * 2**FIX_BITS <= x + err for u = len(_bounds) - 1, or None
        self._fixed: tuple[int, int] | None = None
        self._np_cache = np.array(self._bounds, dtype=np.int64)
        self._lock = threading.Lock()

    def _fixed_power(self, u: int) -> tuple[int, int]:
        """(x, err) with x <= base**u * 2**FIX_BITS <= x + err, by squaring and multiplying, each product truncated.

        With A <= a + e and B <= b + f (in units of 2**-F), AB / 2**F < floor(ab / 2**F) + 1 +
        floor((eb + fa + ef) / 2**F) + 1, which gives each step's err.  A squaring about doubles the
        relative error, so it stays near 3 * (u + 1) * 2**-F, and err far below 2**F in any table.
        """
        x, err = 1 << FIX_BITS, 0
        sq, sq_err = (self._bnum << FIX_BITS) >> self._shift, 1  # base**(2**i) as i rises
        while u:
            if u & 1:
                x, err = (x * sq) >> FIX_BITS, ((err * sq + sq_err * x + err * sq_err) >> FIX_BITS) + 2
            u >>= 1
            if u:
                sq, sq_err = (sq * sq) >> FIX_BITS, ((2 * sq_err * sq + sq_err * sq_err) >> FIX_BITS) + 2
        return x, err

    def _ceil(self, u: int, x: int, err: int) -> int:
        """ceil(base**u) from x <= base**u * 2**FIX_BITS <= x + err.

        Write x = q * 2**F + f.  If f > 0 and f + err <= 2**F, then q < x / 2**F <= base**u <=
        (x + err) / 2**F <= q + 1, so the ceiling is q + 1.  Otherwise (an integer base, whose f
        is 0, or a power within err of an integer) it is computed exactly.
        """
        f = x & ((1 << FIX_BITS) - 1)
        if 0 < f and f + err <= 1 << FIX_BITS:
            return (x >> FIX_BITS) + 1
        return -((-(self._bnum**u)) >> (self._shift * u))

    def _extend_past(self, p: int) -> None:
        # Bounds u < _float_end come from est = exp(u * log1p(delta)) in one numpy pass.  With eps =
        # 2**-53 (1 ulp is at most 2*eps relative) and t = u * ln(base), assuming math.log1p and np.exp
        # each within 4 ulp (glibc documents log1p within 1 ulp; NumPy's float64 exp read within 0.65 ulp
        # of 40-digit mpmath on 20k x86-64 samples): log1p is off by 8*eps relative and the product by
        # eps more, so u * log1p(delta) is off by under 10*eps*t; exp turns that into a relative error
        # under 11*eps*t and adds 8*eps; so, with t <= ln FLOAT_TOP < 25, |est - base**u| < (9 + 11*t) *
        # eps * base**u < 2**-44 * est < 2**-44 * (floor(est) + 1).  The band is twice that, about 2**-7
        # at FLOAT_TOP.  Where est - floor(est) (exact in floats) keeps a band away from 0 and 1,
        # floor(est) < base**u < floor(est) + 1 and the bound is floor(est) + 1; the few entries inside
        # the band take `_fixed_power`.
        # Past those a fixed-point power steps up one bound at a time: with X = base**u * 2**F
        # and x its truncation, the step x' = floor(x * base) has X' - x' = base * (X - x) + frac <
        # base * err + 1 <= floor(base * err) + 2, the next err.  It is seeded by `_fixed_power`
        # when a p first needs a bound past the float route, so no big power is taken below it.
        if self._bounds[-1] > p:
            return
        with self._lock:
            if self._bounds[-1] > p:  # another thread extended it meanwhile
                return
            # readers may be bisecting the published list, so each route below builds a new one
            bounds, fixed, table = self._bounds, self._fixed, self._np_cache
            if len(bounds) < self._float_end:
                u0 = len(bounds)
                est = np.arange(u0, min(int(math.log(p) / self._ln_base) + 2, self._float_end), dtype=np.float64)
                est *= self._ln_base
                np.exp(est, out=est)
                new = np.floor(est)
                est -= new  # now the fractional part
                new += 1.0
                band = new * 2.0**-43  # new > est
                settle = est <= band
                settle |= est >= np.subtract(1.0, band, out=band)
                new = new.astype(np.int64)
                for i in np.flatnonzero(settle).tolist():
                    new[i] = self._ceil(u0 + i, *self._fixed_power(u0 + i))
                end = bisect_right(new, p) + 1  # to the first bound past p
                bounds = bounds + new[:end].tolist()
                table = np.concatenate((table, new[:end]))
                fixed = None
            if bounds[-1] <= p:
                bounds = bounds[:] if bounds is self._bounds else bounds
                u = len(bounds) - 1
                x, err = fixed or self._fixed_power(u)
                bnum, shift, one = self._bnum, self._shift, 1 << FIX_BITS
                while bounds[-1] <= p:
                    u += 1
                    x, err = (x * bnum) >> shift, ((err * bnum) >> shift) + 2
                    f = x & (one - 1)  # `_ceil`'s first case, inline
                    bounds.append((x >> FIX_BITS) + 1 if 0 < f and f + err <= one else self._ceil(u, x, err))
                fixed = x, err
                # a bound past int64 exceeds every entry, so leaving it out changes no index
                table = np.array(bounds[: bisect_left(bounds, 2**63)], dtype=np.int64)
            # the array goes out before the list, so a reader seeing the new bounds sees it too
            self._np_cache = table
            self._bounds, self._fixed = bounds, fixed

    def index(self, p: int) -> int:
        """Bucket of integer ``p >= 1``: the unique u with base**u <= p < base**(u+1)."""
        p = int(p)
        if p < 1:
            raise ParamError(f"processing time must be >= 1, got {p}")
        self._extend_past(p)
        return bisect_right(self._bounds, p) - 1

    def bound(self, u: int) -> int:
        """ceil(base**u) for u >= 0: every integer in bucket u is at least this."""
        if len(self._bounds) <= u:  # one extension, to a p above base**u: exp's relative error is far below 2**-32
            self._extend_past(int(math.exp(min(u * self._ln_base, 700.0)) * (1.0 + 2.0**-32)) + 1)
        while len(self._bounds) <= u:  # only past exp's range
            self._extend_past(self._bounds[-1])
        return self._bounds[u]

    def index_array(self, p: np.ndarray) -> np.ndarray:
        """Vectorized `index` for an int64 array with entries >= 1, which callers check first.

        u = floor(ln p / ln base) in floats, clipped to the table, steps once down and once up against it: by
        `_estimate` that quotient is exact at p = 1, else off by under 2**-47 * (u + 1), below 1 in any table.
        """
        if p.size == 0:
            return np.empty(0, dtype=np.int64)
        self._extend_past(int(p.max()))
        table = self._np_cache  # bounds 0 and 1 at least, as the table now ends past p >= 1
        est = np.log(p, dtype=np.float64)
        est /= self._ln_base
        u = np.minimum(est, table.size - 2, out=est).astype(np.int64)  # est >= 0: the cast floors it
        at = table.take(u, out=est.view(np.int64))  # one buffer for the estimate and the table reads
        u += at <= p  # now the bucket is u or u - 1
        u -= table.take(u, out=at) > p
        return u

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

    def _estimate(self, ln_num, ln_den):
        """est ~ log_base(num/den) from ln num and ln den, and a band: est's floor is exact outside it.

        Takes floats or float arrays.  Error of est against t = ln(num/den)
        / ln(base), with eps = 2**-53 (1 ulp is at most 2*eps relative) and
        S = |ln num| + |ln den|, assuming each float log within 4 ulp of the
        log of its float argument (glibc documents its log within 1 ulp;
        NumPy's float64 log read within 0.53 ulp of 40-digit mpmath on
        20k x86-64 samples):
        - rounding num or den to a double (math.log of an int, or int64 to
          float64) is eps relative, so eps absolute in the log, and the log
          adds 8*eps*|ln x|; past the float range math.log sums
          log(mantissa) + e*log(2), off by under 7*eps + 3*eps*|ln x| with
          |ln x| > 709; so each log is off by at most 4*eps + 8*eps*|ln x|;
        - the subtraction adds eps*S, so the numerator is off by 9*eps*(1+S);
        - log1p of the exact 1+delta is off by 4*eps relative, the division
          by eps relative, which adds 5*eps*S / ln_base.
        So |est - t| <= 15*eps*(1+S) / ln_base < 2**-49 * (1+S) / ln_base,
        and the band is 2**11 times that.  When est - floor(est) (exact in
        floats) keeps a band away from 0 and 1, t lies strictly between the
        same two integers and floor(est) is the answer; else compare exactly.
        """
        est = (ln_num - ln_den) / self._ln_base
        return est, 2.0**-38 * (1.0 + abs(ln_num) + abs(ln_den)) / self._ln_base

    def floor_log(self, num: int, den: int = 1) -> int:
        """Largest integer u with base**u <= num/den (u may be negative)."""
        if num <= 0 or den <= 0:
            raise ParamError("floor_log argument must be a positive rational")
        est, band = self._estimate(math.log(num), math.log(den))
        u = math.floor(est)
        if band < est - u < 1.0 - band:
            return u
        while self.pow_cmp(u, num, den) > 0:
            u -= 1
        while self.pow_cmp(u + 1, num, den) <= 0:
            u += 1
        return u

    def floor_log_array(self, num: np.ndarray, den: int = 1) -> np.ndarray:
        """`floor_log` of each entry of an int64 array ``num`` over one ``den``.

        The float estimate settles every entry outside `_estimate`'s band
        at once; the scalar `floor_log` decides the rest.
        """
        if num.size == 0:
            return np.empty(0, dtype=np.int64)
        if int(num.min()) <= 0 or den <= 0:
            raise ParamError("floor_log argument must be a positive rational")
        est, band = self._estimate(np.log(num.astype(np.float64)), math.log(den))
        u = np.floor(est)
        frac = est - u
        u = u.astype(np.int64)
        for i in np.flatnonzero((frac <= band) | (frac >= 1.0 - band)).tolist():
            u[i] = self.floor_log(int(num[i]), den)
        return u


@lru_cache(maxsize=None)
def _buckets_for(delta: float) -> GeometricBuckets:
    return GeometricBuckets(delta)


def buckets_for(delta: float) -> GeometricBuckets:
    """Shared per-delta bucket table (bucket tables are append-only caches)."""
    return _buckets_for(float(delta))


def machine_bound_met(mode: str, m: int, n: int, h: int, c: int, alpha: float, epsilon: float) -> bool:
    """PAPER.md's machine bound, under which a run is a (1+epsilon)-approximation, multiplied out, in floats.

    It is evaluated at the run's n jobs of height h within a factor c.
    """
    if mode in SAMPLED:
        if mode in CAPPED:  # m <= alpha*n*eps / (20*c^2*h)
            return 20.0 * m * c * c * h <= n * alpha * epsilon
        return 20.0 * m * h * c <= n * epsilon  # m <= n*eps / (20*h*c)
    if mode in CAPPED:  # m <= 2*alpha*n*eps / (3*(h+1)*c)
        return 3.0 * m * (h + 1) * c <= 2.0 * n * alpha * epsilon
    return 3.0 * m * h * c <= 2.0 * n * epsilon  # m <= 2*n*eps / (3*h*c)


def derive_params(params: AlgoParams, mode: str) -> DerivedParams:
    """Compute every derived constant an algorithm mode needs.

    Deterministic: equal inputs give equal outputs.  The sampling modes
    substitute ``k_eff = max(k, 1)`` wherever the sample-size formulas
    divide by k, which keeps them meaningful when c = 1 (k = 0) and only
    makes the sampling more conservative.
    """
    if mode not in NEEDS:
        raise ParamError(f"unknown algorithm mode {mode!r}")
    params.require(*NEEDS[mode])
    bounded = mode in GIVEN and mode not in CAPPED  # every job within a factor c: buckets 0..k, k = floor_log(c)
    delta = params.epsilon / (20.0 if mode in SAMPLED else 3.0)
    gb = buckets_for(delta)
    k = gb.floor_log(params.c) if bounded else None  # index(c), without growing the table to a loose c
    if mode not in SAMPLED:
        return DerivedParams(delta=delta, k=k)
    if bounded:  # the alpha scheme's sizes with alpha = 1 and c in place of c^2
        alpha, c_pow = 1.0, params.c
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
    return DerivedParams(delta=delta, k=k, k_eff=k_eff, gamma=gamma, p=prob, beta=beta, n_prime=n_prime, n0=n0, tau=tau)
