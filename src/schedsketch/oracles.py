"""Ground-truth machinery: depths, exact makespan, and the list baseline.

`exact_makespan` is a branch-and-bound over precedence-feasible job
orderings, where each chosen job is started at its earliest feasible
time (a serial generation scheme).  That search space contains an
optimal schedule for makespan, so with memoization and lower-bound
pruning it is an exact oracle — but an exponential one, hence the hard
size guard.  It exists to check the approximation algorithms at desk
scale, not to schedule anything real.
"""

from __future__ import annotations

import heapq

import numpy as np

from .core import ceil_div
from .errors import CycleSuspicionError, ParamError
from .model import Instance
from .schedule import ConcreteSchedule

EXACT_MAX_JOBS = 12
EXACT_MAX_MACHINES = 3


def longest_paths(src, dst, n: int, weights=None) -> list[int]:
    """Weight of the heaviest path ending at each job 1..n, over the arcs ``src[i] -> dst[i]``.

    A path weighs the sum of its jobs' weights (1 each when ``weights``
    is None), in exact integers.  Runs Kahn's algorithm; an arc end
    outside 1..n raises `ParamError`, and a cycle raises
    `CycleSuspicionError` naming one edge on it.
    """
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    bad = (src < 1) | (src > n) | (dst < 1) | (dst > n)
    if bad.any():  # name the first such arc
        raise ParamError(f"arc ({src[bad][0]}, {dst[bad][0]}) references a job outside 1..{n}")
    succs: list[list[int]] = [[] for _ in range(n + 1)]
    indeg = [0] * (n + 1)
    for a, b in zip(src.tolist(), dst.tolist()):
        succs[a].append(b)
        indeg[b] += 1
    w = [0] + ([1] * n if weights is None else np.asarray(weights).tolist())
    best = w[:]
    queue = [j for j in range(1, n + 1) if indeg[j] == 0]
    for j in queue:  # the loop also visits the jobs it appends
        for s in succs[j]:
            if best[j] + w[s] > best[s]:
                best[s] = best[j] + w[s]
            indeg[s] -= 1
            if indeg[s] == 0:
                queue.append(s)
    if len(queue) != n:
        stuck = next(j for j in range(1, n + 1) if indeg[j] > 0)
        back = next(s for s in range(1, n + 1) if stuck in succs[s] and indeg[s] > 0)
        raise CycleSuspicionError(f"cycle detected; edge ({back}, {stuck}) lies on a cycle")
    return best[1:]


def compute_depths(arcs, n: int) -> np.ndarray:
    """Depth of each job: 1 for sources, else 1 + max predecessor depth."""
    arcs = np.asarray(arcs, dtype=np.int64).reshape(-1, 2)
    return np.array(longest_paths(arcs[:, 0], arcs[:, 1], n), dtype=np.int64)


def critical_path_length(inst: Instance) -> int:
    """Length of the heaviest precedence path (sum of processing times)."""
    return max(longest_paths(inst.arcs[:, 0], inst.arcs[:, 1], inst.n, inst.p), default=0)


def list_schedule(inst: Instance, order=None) -> ConcreteSchedule:
    """Graham list scheduling: each freed machine takes the first ready job.

    ``order`` is a job-id list; earlier ids get priority among ready
    jobs.  Default order is non-increasing processing time, ties by id.
    The result is always feasible and at most (2 - 1/m) times optimal.
    Arcs that starve it (a cycle, such as a self-loop that given depths
    let through) raise `CycleSuspicionError`.
    """
    n = inst.n
    if order is None:
        order = sorted(range(1, n + 1), key=lambda j: (-int(inst.p[j - 1]), j))
    pos = {j: i for i, j in enumerate(order)}
    if len(pos) != n:
        raise ParamError("order must be a permutation of all job ids")
    preds_left = np.zeros(n + 1, dtype=np.int64)
    succs: list[list[int]] = [[] for _ in range(n + 1)]
    for src, dst in inst.arcs:
        succs[src].append(int(dst))
        preds_left[dst] += 1

    ready = [(pos[j], j) for j in range(1, n + 1) if preds_left[j] == 0]
    heapq.heapify(ready)
    avail = [(0, i + 1) for i in range(inst.m)]  # (free-at time, machine id)
    completions: list[tuple[int, int]] = []
    machine = np.zeros(n, dtype=np.int64)
    start = np.zeros(n, dtype=np.int64)
    scheduled = 0
    now = 0
    # advance time over completion events; at each instant, greedily hand
    # the first-listed ready job to the earliest-freed machine
    while scheduled < n:
        while ready and avail[0][0] <= now:
            _, job = heapq.heappop(ready)
            _, mid = heapq.heappop(avail)
            machine[job - 1] = mid
            start[job - 1] = now
            comp = now + int(inst.p[job - 1])
            heapq.heappush(avail, (comp, mid))
            heapq.heappush(completions, (comp, job))
            scheduled += 1
        if scheduled == n:
            break
        if not completions:
            raise CycleSuspicionError("precedence graph starves list scheduling; cycle in arcs?")
        now = completions[0][0]
        while completions and completions[0][0] == now:
            _, j = heapq.heappop(completions)
            for s in succs[j]:
                preds_left[s] -= 1
                if preds_left[s] == 0:
                    heapq.heappush(ready, (pos[s], s))
    return ConcreteSchedule(machine=machine, start=start, p=inst.p.copy())


def exact_makespan(inst: Instance) -> int:
    """Exact optimal makespan by exhaustive search (tiny instances only).

    Guarded to n <= 12 and m <= 3; beyond that the search explodes and
    the call is refused.  Branch-and-bound over topological prefixes:
    the state is (scheduled set, sorted machine availability,
    completion times of jobs that still gate someone); each candidate
    job starts at its earliest feasible time, on the machine whose
    availability that wastes least.  Some schedule of this form is
    optimal, so the minimum over the search is exact.
    """
    n, m = inst.n, inst.m
    if n > EXACT_MAX_JOBS or m > EXACT_MAX_MACHINES:
        raise ParamError(
            f"exact oracle refuses n={n}, m={m} (guard: n <= {EXACT_MAX_JOBS}, m <= {EXACT_MAX_MACHINES})"
        )
    if n == 0:
        return 0
    p = [int(x) for x in inst.p]
    preds_mask = [0] * n
    succs_mask = [0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    for src, dst in inst.arcs:
        preds_mask[dst - 1] |= 1 << (src - 1)
        succs_mask[src - 1] |= 1 << (dst - 1)
        preds[dst - 1].append(int(src) - 1)
    total_p = sum(p)
    lower = max(ceil_div(total_p, m), critical_path_length(inst))  # raises on a cycle
    best = list_schedule(inst).makespan
    if best == lower:
        return best
    # tails[j]: heaviest path starting at j, for per-job lower bounds
    tails = longest_paths(inst.arcs[:, 1], inst.arcs[:, 0], n, p)
    full = (1 << n) - 1
    seen: dict[tuple, int] = {}
    order_hint = sorted(range(n), key=lambda j: (-p[j], j))

    def dfs(mask: int, avail: tuple[int, ...], comps: tuple[int, ...], done_max: int, rem: int):
        nonlocal best
        if mask == full:
            if done_max < best:
                best = done_max
            return
        # T >= max(avail) always, so counting idle time up to T is sound
        lb = max(done_max, ceil_div(rem + sum(avail), m))
        min_avail = avail[0]
        ready = []
        for j in order_hint:
            bit = 1 << j
            if (mask & bit) or (preds_mask[j] & mask) != preds_mask[j]:
                continue
            r = 0
            for q in preds[j]:
                if comps[q] > r:
                    r = comps[q]
            s_t = r if r > min_avail else min_avail
            ready.append((j, s_t))
            if s_t + tails[j] > lb:
                lb = s_t + tails[j]
        if lb >= best:
            return
        key = (mask, avail, comps)
        prev = seen.get(key)
        if prev is not None and prev <= done_max:
            return
        seen[key] = done_max
        for j, s_t in ready:
            # run on the machine that was free latest but no later than the
            # start: every other choice leaves a dominated availability profile
            pick = 0
            for i in range(1, m):
                if avail[i] <= s_t:
                    pick = i
                else:
                    break
            comp = s_t + p[j]
            new_avail = tuple(sorted(avail[:pick] + avail[pick + 1 :] + (comp,)))
            new_mask = mask | (1 << j)
            new_comps = list(comps)
            new_comps[j] = comp
            for q in range(n):
                if new_comps[q] and (succs_mask[q] & ~new_mask & full) == 0:
                    new_comps[q] = 0  # gates nothing anymore: canonicalize
            dfs(new_mask, new_avail, tuple(new_comps), comp if comp > done_max else done_max, rem - p[j])

    dfs(0, tuple([0] * m), tuple([0] * n), 0, total_p)
    return best
