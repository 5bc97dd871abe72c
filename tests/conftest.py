"""Shared fixtures: the random small-instance corpus and its exact optima."""

import numpy as np
import pytest
from hypothesis import settings

import schedsketch as ss

# A failing property prints its @reproduce_failure line, so a failure seen
# only in a log (the example database under .hypothesis/ stays local) can be replayed.
settings.register_profile("schedsketch", print_blob=True)
settings.load_profile("schedsketch")


class SingleUse:
    """Forward-only event source: a second iteration is a test failure."""

    def __init__(self, events):
        self._it = iter(list(events))
        self._consumed = False

    def __iter__(self):
        if self._consumed:
            raise AssertionError("one-pass violation: event stream iterated twice")
        self._consumed = True
        return self._it


def random_instance(rng, n_max=10, m_max=3, c_max=3, h_max=3):
    """Small instance with a mixed DAG shape (none/layered/chains/fan-out)."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    c = int(rng.integers(1, c_max + 1))
    h_target = int(rng.integers(1, h_max + 1))
    p = rng.integers(1, c + 1, size=n)
    shape = int(rng.integers(0, 4))
    arcs = []
    if shape == 1:
        levels = rng.integers(1, h_target + 1, size=n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if levels[i - 1] < levels[j - 1] and rng.random() < 0.4:
                    arcs.append((i, j))
    elif shape == 2:
        ids = rng.permutation(n) + 1
        pos = 0
        while pos + 1 < n:
            ln = int(rng.integers(2, min(h_target, n - pos) + 1)) if h_target > 1 else 1
            chain_ids = sorted(int(x) for x in ids[pos : pos + ln])
            arcs.extend(zip(chain_ids, chain_ids[1:]))
            pos += ln
    elif shape == 3 and n > 1:
        for j in range(2, n + 1):
            if rng.random() < 0.5:
                arcs.append((1, j))
    depth = ss.compute_depths(arcs, n)
    arcs = sorted(set(arcs), key=lambda e: (depth[e[1] - 1], e[1], e[0]))
    return ss.Instance(
        p=p, depth=depth, arcs=np.asarray(arcs, dtype=np.int64).reshape(-1, 2), m=m
    )


@pytest.fixture(scope="session")
def small_corpus(small_corpus_timing):
    """200 random instances (n <= 10, m <= 3, c <= 3, h <= 3) with exact optima."""
    import time

    rng = np.random.default_rng(20240817)
    t0 = time.monotonic()
    out = []
    for _ in range(200):
        inst = random_instance(rng)
        out.append((inst, ss.exact_makespan(inst)))
    small_corpus_timing["build_seconds"] = time.monotonic() - t0
    return out


@pytest.fixture(scope="session")
def small_corpus_timing():
    return {"build_seconds": 0.0}
