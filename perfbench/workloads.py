"""The benchmark's workloads: how each input is made and which calls run on it.

Every workload has one instance file, on which the four stream modes
and the second pass run, and a list of sampler call sets on implicit
10^7-job instances.  The file is a pure function of the workload seed;
the sampler calls use fixed seeds, so their inputs never depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from schedsketch.generators import chain, layered
from schedsketch.model import Instance

import checker


@dataclass(frozen=True)
class SamplerSet:
    """One `schedsketch sampleN` configuration with a closed-form optimum."""

    label: str
    cmd: str
    spec: str
    flags: tuple[str, ...]
    epsilon: float
    cstar: int
    kept_fault: bool = False

    def argv(self, seed: int) -> list[str]:
        return [self.cmd, "--epsilon", str(self.epsilon), *self.flags, "--in", self.spec,
                "--seed", str(seed), "--trials", "1"]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # seed -> schedsketch Instance with depths
    epsilon: float
    m: int
    schedule_from: str  # the stream mode whose result `schedule` expands
    samplers: tuple[SamplerSet, ...]
    sampler_seeds: tuple[int, ...]
    repeats: tuple[tuple[str, int], ...] = ()  # (operation, calls per round) for the short ones


CHAIN_N = 10**7 - 1  # 3,333,333 chains of 3 unit jobs
SAMPLE1_CHAIN = SamplerSet(
    label="sample1-chain",
    cmd="sample1",
    spec=f"chain:m=1,q={CHAIN_N // 3},h=3",
    flags=("--m", "1", "--c", "1", "--h", "3", "--confidence-scale", "0.00390625"),
    epsilon=0.5,
    cstar=checker.chain_cstar(CHAIN_N // 3, 3, 1),
)
# c*w0 covers p=10 even when the single w0 draw is a p=1 job, so this set
# is accurate on every seed.
SAMPLE2_HALF = SamplerSet(
    label="sample2-half",
    cmd="sample2",
    spec="alpha-mixed:n=10000000,alpha=0.5,c=10,pbig=10,small=1",
    flags=("--m", "1", "--c", "10", "--h", "1", "--alpha", "0.5", "--confidence-scale", "1.3e-12"),
    epsilon=0.5,
    cstar=checker.two_value_cstar(10**7, 5 * 10**6, 10, 1),
)
# Kept fault: --confidence-scale also shrinks n0 to one draw, so on most
# seeds w0 is a p=1 job, every p=1000 group lands above c*w0 and is
# dropped, and A comes out near 0.3% of C* with exit 0.
SAMPLE2_QUARTER = SamplerSet(
    label="sample2-quarter",
    cmd="sample2",
    spec="alpha-mixed:n=10000000,alpha=0.25,c=2,pbig=1000,small=1",
    flags=("--m", "1", "--c", "2", "--h", "1", "--alpha", "0.25", "--confidence-scale", "1.2e-10"),
    epsilon=0.5,
    cstar=checker.two_value_cstar(10**7, 2_500_000, 1000, 1),
    kept_fault=True,
)


def layered_60k(seed: int):
    return layered([20_000] * 3, c=50, m=100, seed=seed)


ASCENDING_H = 3  # depth of the ascending-capped instances


def ascending_capped(seed: int, n: int = 5_000, p_max: float = 4e8):
    """p log-uniform over [1, p_max], ids in ascending p; one parent arc per non-source.

    With n = 5000 and p_max = 4e8, about 14% of jobs fall below p_max/n^2.
    """
    rng = np.random.default_rng(seed)
    p = np.sort(np.rint(p_max ** rng.uniform(0.0, 1.0, size=n)).astype(np.int64))
    depth = rng.integers(1, ASCENDING_H + 1, size=n)
    depth[rng.permutation(n)[:ASCENDING_H]] = np.arange(1, ASCENDING_H + 1)  # every level occupied
    arcs = []
    for d in range(2, ASCENDING_H + 1):  # grouped by destination depth: topological order
        kids = np.flatnonzero(depth == d) + 1
        parents = rng.choice(np.flatnonzero(depth == d - 1) + 1, size=kids.size)
        arcs.append(np.column_stack((parents, kids)))
    return Instance(p=p, depth=depth, arcs=np.concatenate(arcs), m=4)


def small_chain(seed: int):
    """The sampler's chain family, small enough to write out: 10^4 chains of 3.

    The family has no randomness, so every seed gives the same file.
    """
    return chain(m=100, q=100, h=3)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("layered-60k", layered_60k, epsilon=0.3, m=100,
                 schedule_from="stream2", samplers=(SAMPLE1_CHAIN, SAMPLE2_HALF),
                 sampler_seeds=(0, 1, 2, 3)),
        # stream3/stream4 take ~1.3 s a call here and the other file
        # operations ~0.05 s; repeating the short ones gives them more
        # samples per run at little cost.
        Workload("ascending-capped", ascending_capped, epsilon=0.05, m=4,
                 schedule_from="stream4", samplers=(SAMPLE1_CHAIN, SAMPLE2_HALF),
                 sampler_seeds=(0, 1, 2, 3),
                 repeats=(("stream1", 4), ("stream2", 4), ("schedule", 4))),
        Workload("sample-implicit", small_chain, epsilon=0.3, m=100,
                 schedule_from="stream2", samplers=(SAMPLE1_CHAIN, SAMPLE2_HALF, SAMPLE2_QUARTER),
                 sampler_seeds=tuple(range(8))),
    )
}
