#!/usr/bin/env python3
"""Approximating the makespan while reading almost none of the input.

The randomized algorithms never scan the instance: they draw uniform
job samples, scale the per-(depth, bucket) counts by n/n', and drop
groups too small to be statistically trustworthy.  Job access goes
through an access object, so a 10-million-job instance here is a pure
function of the job id and costs no memory at all.

The access counter is the honesty check: it records every id the
algorithm touched.  With the sample sizes scaled down 16x (the
``confidence_scale`` knob), a 10^7-job instance is answered to within
a fraction of a percent after touching ~230k ids, under 3% of the
input.  The second half runs the two-phase variant that must first
estimate the scale of the largest jobs from a handful of draws.
"""

import schedsketch as ss


def main():
    n = 10_000_000
    access = ss.ChainAccess(m=1, q=n, h=1)  # n unit jobs, one machine
    cstar = n
    print(f"uniform instance: n = {n:,}, optimum = {cstar:,}")
    errs = []
    touched = None
    for seed in range(10):
        counted = ss.CountingAccess(access)
        rep = ss.rand_approx_bounded(
            counted,
            ss.AlgoParams(epsilon=0.5, m=1, c=1, h=1, seed=seed, confidence_scale=1 / 16),
        )
        errs.append(abs(rep.A - cstar) / cstar)
        touched = counted.ids_fetched
    print(f"  ids touched per run : {touched:,} ({100 * touched / n:.2f}% of the input)")
    print(f"  worst relative error over 10 seeds: {max(errs):.2e}")
    print()

    n_big = n // 2
    two = ss.TwoValueAccess(n=n, n_big=n_big, p_big=10, p_small=1)
    cstar = two.total_p
    print(f"two-valued instance: half p=10, half p=1, optimum = {cstar:,}")
    params = ss.AlgoParams(epsilon=0.5, m=1, c=10, h=1, alpha=0.5, n=n)
    drv = ss.derive_params(params, "sample2")
    print(f"  at full confidence: n0 = {drv.n0} scale draws, n' = {drv.n_prime:,}")
    scale = 200_000 / drv.n_prime
    print(f"  scaled down to n' ~ 200k (n0 is never scaled):")
    for seed in range(3):
        counted = ss.CountingAccess(two)
        rep = ss.rand_approx_alpha(
            counted,
            ss.AlgoParams(
                epsilon=0.5, m=1, c=10, h=1, alpha=0.5, seed=seed, confidence_scale=scale
            ),
        )
        print(
            f"  seed {seed}: A = {rep.A:,} "
            f"(off by {100 * (rep.A - cstar) / cstar:+.3f}%), "
            f"w0 = {rep.extras['w0']}, ids touched = {counted.ids_fetched:,}"
        )
    print(f"  the {drv.n0} scale draws hit the p=10 half with probability 1 - 2^-{drv.n0},")
    print("  so w0 = 10 and the top bucket, pinned to c*w0, covers p_max; even")
    print("  w0 = 1 would do here, because c = 10 is exactly the spread the")
    print("  instance promises about its largest jobs.")


if __name__ == "__main__":
    main()
