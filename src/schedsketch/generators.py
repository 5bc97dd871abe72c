"""Seeded instance families, several with analytically known optima.

Families:

* ``chain``       — m*q disjoint chains of h unit jobs.  The optimum is
                    exactly q*h (q chains back to back per machine), so
                    approximation ratios can be checked in closed form.
* ``layered``     — given per-depth counts, each job depends on one
                    random job of the previous layer; p uniform in [1, c].
* ``alpha-mixed`` — exactly ceil(alpha*n) "big" jobs within factor c of
                    the maximum, the rest strictly smaller.
* ``random-dag``  — jobs get random levels in [1, h], arcs only go
                    level-up with the given density; depths recomputed
                    from the arcs afterwards.

All families are deterministic functions of their parameters and seed,
and emit arcs grouped by destination in topological order (every arc
into a job precedes every arc out of it), which is what the streaming
arc contract requires: ascending by (depth of dst, dst, src).  Each
family builds its arcs as int64 arrays from whole-array draws, the same
draws in the same order as a loop over the jobs would make.
"""

from __future__ import annotations

import numpy as np

from .core import ceil_div
from .errors import ParamError
from .model import Instance
from .oracles import compute_depths


NO_IDS = np.empty(0, dtype=np.int64)


def _sort_arcs(src: np.ndarray, dst: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """The arcs ``src[i] -> dst[i]`` as a (k, 2) int64 array, ascending by (depth of dst, dst, src)."""
    d = depth[dst - 1]
    same_d, same_dst = d[1:] == d[:-1], dst[1:] == dst[:-1]
    ascending = (d[1:] > d[:-1]) | same_d & ((dst[1:] > dst[:-1]) | same_dst & (src[1:] >= src[:-1]))
    if not ascending.all():  # chain, layered and alpha-mixed emit them in this order already
        key = np.lexsort((src, dst, d))
        src, dst = src[key], dst[key]
    return np.column_stack((src, dst))


def chain(m: int, q: int, h: int) -> Instance:
    """m*q disjoint chains of h unit jobs; optimal makespan is q*h."""
    if m < 1 or q < 1 or h < 1:
        raise ParamError("chain family needs m, q, h >= 1")
    n_chains = m * q
    n = n_chains * h
    p = np.ones(n, dtype=np.int64)
    depth = np.tile(np.arange(1, h + 1, dtype=np.int64), n_chains)
    src = (np.arange(1, h, dtype=np.int64)[:, None] + np.arange(n_chains, dtype=np.int64) * h).ravel()
    arcs_arr = _sort_arcs(src, src + 1, depth)  # position 1 of every chain, then position 2, ...
    meta = {"family": "chain", "m": m, "q": q, "h": h, "c": 1, "alpha": 1.0, "cstar": q * h}
    return Instance(p=p, depth=depth, arcs=arcs_arr, m=m, meta=meta)


def layered(shape: list[int], c: int, m: int, seed: int = 0) -> Instance:
    """Per-depth job counts; each non-source depends on one previous-layer job."""
    if not shape or any(s < 1 for s in shape):
        raise ParamError("layered family needs at least one job per layer")
    if c < 1:
        raise ParamError("layered family needs c >= 1")
    rng = np.random.default_rng(seed)
    n = int(sum(shape))
    depth = np.repeat(np.arange(1, len(shape) + 1, dtype=np.int64), shape)
    p = rng.integers(1, c + 1, size=n).astype(np.int64)
    ends = np.cumsum([0, *shape])  # layer d holds ids ends[d-1]+1 .. ends[d]
    parents = [rng.choice(np.arange(ends[d - 1] + 1, ends[d] + 1), size=shape[d]) for d in range(1, len(shape))]
    arcs_arr = _sort_arcs(np.concatenate([NO_IDS, *parents]), np.arange(shape[0] + 1, n + 1), depth)
    meta = {"family": "layered", "shape": list(shape), "c": c, "h": len(shape), "seed": seed}
    return Instance(p=p, depth=depth, arcs=arcs_arr, m=m, meta=meta)


def big_jobs(n: int, alpha: float, c: int) -> int:
    """The alpha-mixed family's count of big jobs, ceil(alpha*n), robust to float dust."""
    if not 0.0 < alpha <= 1.0 or c < 1:
        raise ParamError(f"alpha-mixed family needs 0 < alpha <= 1 and c >= 1, got alpha={alpha}, c={c}")
    return ceil_div(int(round(alpha * n * 10**9)), 10**9)


def alpha_mixed(n: int, alpha: float, c: int, p_big: int, m: int = 1, h: int = 1, seed: int = 0,
                small: int | None = None) -> Instance:
    """Exactly ceil(alpha*n) jobs in [ceil(p_big/c), p_big]; the rest smaller.

    ``small`` fixes every small job's processing time (needed for
    implicit access); by default smalls are drawn uniformly below the
    big range.  Depths are random in [1, h] with one chain arc into
    each non-source job to keep depths and arcs consistent.
    """
    if n < 1 or h < 1:
        raise ParamError("alpha-mixed family needs n, h >= 1")
    n_big = big_jobs(n, alpha, c)
    if alpha * n < 1.0:
        raise ParamError(f"alpha*n = {alpha * n:g} < 1: no big jobs to construct")
    big_lo = ceil_div(p_big, c)
    if small is None and big_lo < 2 and n_big < n:
        raise ParamError("no room below the big range for small jobs; raise p_big or c")
    if h > n:
        raise ParamError(f"h={h} exceeds n={n}")
    rng = np.random.default_rng(seed)
    p = np.empty(n, dtype=np.int64)
    p[:n_big] = rng.integers(big_lo, p_big + 1, size=n_big)
    if n_big < n:
        if small is not None:
            if not (1 <= small <= big_lo):
                raise ParamError(f"small={small} must not exceed the big-range floor {big_lo}")
            p[n_big:] = small
        else:
            p[n_big:] = rng.integers(1, big_lo, size=n - n_big)
    p = p[rng.permutation(n)]
    depth = np.ones(n, dtype=np.int64)
    if h > 1:
        depth = rng.integers(1, h + 1, size=n).astype(np.int64)
        depth[rng.permutation(n)[:h]] = np.arange(1, h + 1)  # every level occupied
    by_depth = [np.nonzero(depth == d)[0] + 1 for d in range(1, h + 1)]
    parents = [rng.choice(by_depth[d - 2], size=by_depth[d - 1].size) for d in range(2, h + 1)]
    arcs_arr = _sort_arcs(np.concatenate([NO_IDS, *parents]), np.concatenate([NO_IDS, *by_depth[1:]]), depth)
    meta = {"family": "alpha-mixed", "n": n, "alpha": n_big / n, "c": c, "p_big": p_big, "h": h, "seed": seed,
            "n_big": n_big}
    return Instance(p=p, depth=depth, arcs=arcs_arr, m=m, meta=meta)


def random_dag(n: int, h: int, density: float, m: int, c: int = 3, seed: int = 0) -> Instance:
    """Random level-respecting DAG; depths recomputed from the arcs."""
    if n < 1 or h < 1:
        raise ParamError("random-dag family needs n, h >= 1")
    if n > 2000:
        raise ParamError("random-dag is quadratic in n; use n <= 2000")
    if not (0.0 <= density <= 1.0):
        raise ParamError(f"density must be in [0, 1], got {density}")
    rng = np.random.default_rng(seed)
    levels = rng.integers(1, h + 1, size=n)
    p = rng.integers(1, c + 1, size=n).astype(np.int64)
    pairs = np.flatnonzero(levels[:, None] < levels[None, :])  # level-increasing (i, j), i-major as a loop draws
    arcs = np.column_stack(np.divmod(pairs[rng.random(pairs.size) < density], n)) + 1
    depth = compute_depths(arcs, n)
    arcs_arr = _sort_arcs(arcs[:, 0], arcs[:, 1], depth)
    meta = {"family": "random-dag", "n": n, "h_target": h, "h": int(depth.max()) if n else 0,
            "density": density, "c": c, "seed": seed}
    return Instance(p=p, depth=depth, arcs=arcs_arr, m=m, meta=meta)


FAMILIES = {
    "chain": chain,
    "layered": layered,
    "alpha-mixed": alpha_mixed,
    "random-dag": random_dag,
}


def generate(family: str, seed: int = 0, **kwargs) -> Instance:
    """Build a named instance family; deterministic under (family, params, seed)."""
    try:
        fn = FAMILIES[family]
    except KeyError:
        raise ParamError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}") from None
    if family == "chain":
        return fn(**kwargs)
    return fn(seed=seed, **kwargs)
