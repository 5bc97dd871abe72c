"""Randomized sublinear-time approximation via uniform job sampling.

Instead of reading every job, draw n' uniform samples (with
replacement), bucket them exactly like the streaming algorithms, scale
the counts by n/n', and drop groups whose estimate is too small to be
statistically reliable (at most 2*tau, where tau = n * sampling-mass
threshold).  The surviving estimated sketch feeds the same
rounded-load arithmetic (`sketch.bucket_loads`) and the same finish
(`streaming.finish`: A, an estimated schedule sketch whose intervals
are padded for the estimation error, the machine bound and the report)
as the streaming side.

Both schemes are one sampler (`_sample`) with one of two policies,
fixed by the mode (`core.CAPPED`) before any draw:

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

Draws are taken in batches of 2**16 (`_CHUNK`): each batch's ids are
drawn, fetched and counted while its columns stay in cache, where one
batch of 2**20 draws made each int64 column an 8-MiB temporary.
`Generator.integers` gives the same ids however the draws are split,
so no batch size changes the sample.  Each column is held in the
narrowest dtype that holds its values: ids are uint32 while n < 2**32
(`Generator.integers` draws the same ids from the same state as in
int64), and an implicit family's p and depth are small unsigned
columns, or read-only stride-0 broadcast views where they are constant.

While the call could hold no more (p, depth) pairs than it draws, and
at most 2**20 (`_HELD`), judged by the largest p and depth drawn so
far, one table tallies the pairs across the batches (a batch is never
smaller than the table, so adding it in costs no more than its draws)
and each distinct p is bucketed once, at the end.  A batch with a
constant column reads that column's largest value from its one value
and is counted into that value's row or column of the table by a
bincount of the other column; a batch with none, by a bincount of an
intp key p * width + depth built in one buffer kept for the call.  The
nonzero cells of that row or column are then held while there are at
most `_FEW`, and each later batch with the same constant is counted by
one ``count_nonzero(column == v)`` per held cell, with no max pass and
no key.  Distinct cells are disjoint, so the counts cover the batch
exactly when they sum to its size; a batch that falls short holds a
value the cells lack, so it takes the bincount, which refreshes the
cells, and once a row or column passes `_FEW` cells none are held
again.  Once the table could hold more, every later draw is bucketed
and each batch's (bucket, depth) pairs are counted by `pair_counts`.
One lexsort merges the parts at the end, and folds them into one
whenever they pass 2**20 rows and twice the last fold, so they grow
with the distinct pairs, not with the draws; the counts come back in
increasing (u, d) for any batch size.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Protocol

import numpy as np

from .core import (
    CAPPED,
    SAMPLE_ALPHA,
    SAMPLE_BOUNDED,
    AlgoParams,
    GeometricBuckets,
    buckets_for,
    derive_params,
)
from .errors import InputContractError, ParamError
from .model import Instance, RunReport
from .sketch import bucket_loads, pair_counts
from .streaming import finish

N_MAX = 2**63 - 2  # the largest job count sampled: the ids 1..n and the draw bound n + 1 are int64
_CHUNK = 1 << 16  # draws a batch: 2**14 to 2**17 time alike, 2**19 and up ~2x slower (sample2, 2-core x86_64 VM)
_HELD = 1 << 20  # the most (p, d) cells tallied, and the per-draw route's pair rows held before they are merged
_FEW = 8  # the most held cells counted one by one: a count_nonzero(column == v) of 2**16 draws took 9-17 us,
# a bincount 132-177 us (2-core x86_64 VM)


class SampleAccess(Protocol):
    """Random access to jobs by id (1-based), possibly implicit."""

    n: int

    def fetch(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(p, depth) for the given job ids, every entry >= 1: integer arrays of the ids' shape, or read-only
        stride-0 broadcast views where a column is constant, each in any dtype but uint64 that holds its values."""
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
        idx = ids.astype(np.intp)  # numpy would cast a uint32 index to intp once per gather
        idx -= 1
        return self._p[idx], self._depth[idx]


class ChainAccess:
    """Implicit chain family: m*q chains of h unit jobs, O(1) memory."""

    def __init__(self, m: int, q: int, h: int):
        if m < 1 or q < 1 or h < 1:
            raise ParamError("chain family needs m, q, h >= 1")
        self.m = m
        self.q = q
        self.h = h
        self.n = m * q * h
        self.cstar = q * h

    def fetch(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        depth = ids - 1  # (ids - 1) % h + 1 as ids - h * ((ids - 1) // h), in the ids' dtype, which holds h <= n:
        depth //= self.h  # numpy divides by one integer in place far faster than it takes its remainder
        depth *= self.h
        np.subtract(ids, depth, out=depth)
        return np.broadcast_to(np.uint8(1), ids.shape), depth


class TwoValueAccess:
    """Implicit two-valued family: ids <= n_big get p_big, the rest p_small.

    Depth is 1 everywhere, so with m = 1 the optimum is exactly the
    total processing time — a closed form the statistical tests rely on.
    """

    def __init__(self, n: int, n_big: int, p_big: int, p_small: int):
        if not (1 <= n_big <= n) or p_big < p_small or p_small < 1:
            raise InputContractError("need 1 <= n_big <= n and p_big >= p_small >= 1")
        if p_big >> 63:
            raise InputContractError(f"p_big {p_big} exceeds 2**63 - 1")
        self.n = n
        self.n_big = n_big
        self.p_big = p_big
        self.p_small = p_small
        # the smallest unsigned dtype that holds p_big, but int64 past uint32, so no uint64 meets an int64
        self._p_dtype = np.min_scalar_type(p_big) if p_big >> 32 == 0 else np.dtype(np.int64)

    @property
    def total_p(self) -> int:
        return self.n_big * self.p_big + (self.n - self.n_big) * self.p_small

    def fetch(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p = (ids <= self.n_big).astype(self._p_dtype)  # 0 or 1, scaled in place: cheaper than np.where
        p *= self.p_big - self.p_small
        p += self.p_small
        return p, np.broadcast_to(np.uint8(1), ids.shape)


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
    the number of draws.  Returns ({(d, u): count}, draws_performed),
    the keys in increasing (u, d); the module docstring gives the
    batches, the one tally, its held cells and the merge.
    """
    if n_draws < 1:
        raise InputContractError(f"need at least one draw, got {n_draws}")
    n = access.n
    full_scan = n_draws >= n
    draws = n if full_scan else n_draws
    id_dtype = _id_dtype(n)
    key = np.empty(0, dtype=np.intp)  # the tally's key, one buffer for every batch
    rows = width = 0  # one more than the largest p and depth drawn so far
    table = np.zeros((0, 0), dtype=np.int64)  # draws at each (p, d), while the few-values route holds
    parts = []  # (u, d, count) columns: the per-draw route's, a batch each, then the table's
    held, fold_at = 0, _HELD  # the rows in parts; past fold_at they are merged into one part
    cells, few = None, True  # (axis, value, line, others): the held cells; few until a line passes _FEW cells
    done = 0
    while done < draws:
        take = min(max(_CHUNK, table.size), draws - done)  # no smaller than the tally it is added to
        if full_scan:
            ids = np.arange(done + 1, done + take + 1, dtype=id_dtype)
        else:
            ids = rng.integers(1, n + 1, size=take, dtype=id_dtype)
        p, depth = access.fetch(ids)
        done += take
        axis = 0 if p.strides == (0,) else 1 if depth.strides == (0,) else None  # a constant column, if any
        value = None if axis is None else int((p, depth)[axis][0])
        if cells is not None and cells[:2] == (axis, value):
            line, others = cells[2:]
            counts = [np.count_nonzero((p, depth)[1 - axis] == v) for v in others]
            if sum(counts) == take:  # distinct cells are disjoint: every draw is in one of them
                line[others] += counts
                continue
        cells = None
        p_max = value if axis == 0 else int(p.max())
        d_max = value if axis == 1 else int(depth.max())
        if p_cap is not None and p_max > p_cap:
            raise InputContractError(f"sampled job has p={p_max} > c={p_cap}")
        if h_cap is not None and d_max > h_cap:
            raise InputContractError(f"sampled job has depth {d_max} > h={h_cap}")
        rows, width = max(rows, p_max + 1), max(width, d_max + 1)
        if rows * width <= min(draws, _HELD):  # few distinct values for the call: tally the (p, d) pairs
            if table.shape != (rows, width):
                grown = np.zeros((rows, width), dtype=np.int64)
                grown[: table.shape[0], : table.shape[1]] = table
                table = grown
            if axis is None:
                if key.size < take:
                    key = np.empty(take, dtype=np.intp)
                # dtype=intp: a uint8 p times a Python int would stay uint8 and wrap
                at = np.multiply(p, width, out=key[:take], dtype=np.intp)
                at += depth
                table += np.bincount(at, minlength=table.size).reshape(rows, width)
                continue
            line = table[value] if axis == 0 else table[:, value]  # the constant column's row or column
            line += np.bincount(depth if axis == 0 else p, minlength=line.size)
            if few:
                others = np.flatnonzero(line).tolist()
                few = len(others) <= _FEW
                cells = (axis, value, line, others) if few else None
            continue
        if min_p is not None:
            keep = p > min_p
            p, depth = p[keep], depth[keep]
        if p.size:
            parts.append(pair_counts(buckets.index_array(p.astype(np.int64, copy=False)), depth))
            held += parts[-1][0].size
            if held > fold_at:  # so the rows held grow with the distinct pairs, not with the draws
                parts = [_merge(parts)]
                held = parts[0][0].size
                fold_at = max(2 * held, _HELD)
    ps = np.flatnonzero(table.any(axis=1))
    if min_p is not None:
        ps = ps[ps > min_p]
    if ps.size:
        us = buckets.index_array(ps)
        starts = np.flatnonzero(np.diff(us, prepend=us[0] - 1))  # u rises with p: each bucket's rows together
        grouped = np.add.reduceat(table[ps], starts, axis=0)
        at, ds = np.nonzero(grouped)
        parts.append((us[starts][at], ds, grouped[at, ds]))
    if not parts:
        return {}, draws
    us, ds, cnt = _merge(parts)
    return dict(zip(zip(ds.tolist(), us.tolist()), cnt.tolist())), draws


def _merge(parts: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One (u, d, count) part from parts whose pairs are each sorted and distinct: one lexsort, equal pairs added."""
    us, ds, cnt = (np.concatenate(col) for col in zip(*parts))
    if len(parts) > 1:
        order = np.lexsort((ds, us))
        us, ds, cnt = us[order], ds[order], cnt[order]
        starts = np.flatnonzero(np.diff(us, prepend=us[0] - 1) | np.diff(ds, prepend=ds[0] - 1))
        us, ds, cnt = us[starts], ds[starts], np.add.reduceat(cnt, starts)
    return us, ds, cnt


def estimate_wmax(access: SampleAccess, n0: int, rng: np.random.Generator) -> int:
    """Largest processing time among n0 uniform draws."""
    if n0 < 1:
        raise InputContractError(f"need at least one draw, got {n0}")
    ids = rng.integers(1, access.n + 1, size=n0, dtype=_id_dtype(access.n))
    p, _ = access.fetch(ids)
    return int(p.max())


def _id_dtype(n: int) -> type:
    """uint32 for the ids 1..n while they fit, else int64: `Generator.integers` draws the same ids in either."""
    return np.uint32 if n >> 32 == 0 else np.int64


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
    if access.n > N_MAX:
        raise ParamError(f"{access.n} jobs; at most 2**63 - 2 can be sampled")
    alpha = mode in CAPPED
    pr = replace(params, n=access.n)
    drv = derive_params(pr, mode)
    gb = buckets_for(drv.delta)
    rng = np.random.default_rng(pr.seed)
    if alpha:  # the main sample is filtered at delta*w0/n; only the bounded mode caps p at c
        n0 = drv.n0
        w0 = estimate_wmax(access, n0, rng)  # the n0 draws come before the main sample
        top, min_p, p_cap = pr.c * w0, drv.delta * w0 / pr.n, None
        num, den = drv.delta.as_integer_ratio()
        u_lo, u_hi = gb.floor_log(num * w0, den * pr.n), gb.floor_log(top)
        pad_w0 = math.floor(drv.delta * w0)
    else:
        n0, top, u_lo, u_hi, pad_w0, min_p, p_cap = 0, pr.c, 0, drv.k, 0, None, pr.c
    counts, draws = estimate_counts(access, drv.n_prime, gb, rng, min_p=min_p, p_cap=p_cap, h_cap=pr.h)
    kept = _scaled_estimates(counts, pr.n, draws, drv.tau)
    (ds, us), ehat = np.array(list(kept), dtype=np.int64).reshape(-1, 2).T, np.array(list(kept.values()))
    inside = us <= u_hi  # w0 can underestimate the top
    extras = {
        "delta": drv.delta,
        "n_prime": drv.n_prime,
        "n0": n0,
        "tau": drv.tau,
        "cap_triggered": drv.n_prime >= pr.n,
        "estimates": kept,
    }
    if alpha:  # groups above c*w0 fall outside
        extras.update(w0=w0, dropped_above_top=len(kept) - int(inside.sum()))
    loads = bucket_loads(us[inside], ds[inside], ehat[inside], gb, u_lo, u_hi, top, pr.h)
    pad_noise = math.floor(3.0 * drv.tau) * drv.k_eff * top + pad_w0
    return finish(mode, pr, loads, top, tight, (pr.n, pr.h, pr.c), (len(kept), n0 + draws, n0 + draws), extras,
                  stretch=1.0 - drv.delta, slack=pad_noise)


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
