#!/usr/bin/env python3
"""Keeping the sketch small when processing times span many decades.

When only the largest alpha*n jobs are within a factor c of each other,
the naive bucket range grows with p_max/p_min and the sketch would no
longer be small.  The capped mode drops jobs below p_max/n^2 on the
fly and evicts the buckets that fall below that moving cutoff, so
the tree never holds more than ~ h * log_{1+delta}(n^2) nodes, while
the answer only gains a +ceil(p_max/n) correction.

This script builds an instance with processing times spread over six
orders of magnitude and reports how many sketch nodes were alive at the
worst moment versus the bound, and how the approximation compares to
the trivial lower bound max(ceil(total/m), critical path).
"""

import numpy as np

import schedsketch as ss

EPS = 0.3


def main():
    rng = np.random.default_rng(7)
    n, h, m = 5000, 4, 8
    alpha, c, p_big = 0.1, 2, 10**6
    inst = ss.alpha_mixed(n=n, alpha=alpha, c=c, p_big=p_big, m=m, h=h, seed=3)
    print(f"alpha-mixed instance: n={n}, h={h}, m={m}, alpha={alpha}, c={c}")
    print(f"  processing times span [{int(inst.p.min())}, {int(inst.p.max())}]")

    params = ss.AlgoParams(epsilon=EPS, m=m, c=c, h=h, n=n, alpha=alpha)
    rep = ss.stream_alpha_known(inst.jobs(), params)

    gb = ss.buckets_for(EPS / 3)
    naive_span = gb.index(int(inst.p.max())) - 0 + 1
    bound = h * (gb.floor_log(n * n) + 2)
    lower = max(-(-int(inst.p.sum()) // m), ss.critical_path_length(inst))

    print(f"  bucket span if nothing were dropped : {h} x {naive_span} cells")
    print(f"  peak sketch nodes observed          : {rep.extras['peak_node_count']}")
    print(f"  size bound h*(log_(1+d)(n^2)+2)     : {bound}")
    print(f"  final sketch nodes                  : {rep.sketch_node_count}")
    print(f"  jobs counted after filtering        : {rep.extras['counted']} of {n}")
    print()
    print(f"  approximate makespan A              : {rep.A}")
    print(f"  trivial lower bound                 : {lower}")
    print(f"  A / lower bound                     : {rep.A / lower:.4f}")
    print(f"  machine-count condition met         : {rep.guarantee_condition_met}")
    print()

    # the unknown-parameter variant discovers depths from arcs and lands
    # on the same value here
    rep4 = ss.stream_alpha_unknown(
        inst.events(with_depth=False),
        ss.AlgoParams(epsilon=EPS, m=m, n=n, alpha=alpha),
    )
    print(f"  same value with depths discovered from arcs: A = {rep4.A}")


if __name__ == "__main__":
    main()
