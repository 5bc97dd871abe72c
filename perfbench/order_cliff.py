"""Reference figure for README.md: stream3/stream4 on one job multiset in two orders.

    python3 perfbench/order_cliff.py [--seed 1] [--repeats 3] [--n 5000 --p-max 4e8]

Builds the ascending-capped instance (by default at the workload's
size), writes it once as generated (ids in ascending p) and once with
the job ids shuffled (same p multiset, same depths, arcs renumbered),
and prints the median wall time per job of `schedsketch stream3` and
`stream4` on each file.  Not part of the benchmark's runs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from schedsketch import cli, core, fileio  # noqa: E402
from schedsketch.model import Instance  # noqa: E402

from workloads import ASCENDING_H, WORKLOADS, ascending_capped  # noqa: E402


def shuffled(inst: Instance, seed: int) -> Instance:
    """Same jobs under a random id order; arcs stay grouped by destination depth."""
    perm = np.random.default_rng(seed).permutation(inst.n)  # new position -> old index
    new_id = np.empty(inst.n, dtype=np.int64)
    new_id[perm] = np.arange(1, inst.n + 1)
    arcs = new_id[inst.arcs - 1]
    depth = inst.depth[perm]
    arcs = arcs[np.argsort(depth[arcs[:, 1] - 1], kind="stable")]
    return Instance(p=inst.p[perm], depth=depth, arcs=arcs, m=inst.m)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--n", type=int, default=5_000, help="jobs")
    ap.add_argument("--p-max", type=float, default=4e8, help="largest processing time")
    args = ap.parse_args()

    wl = WORKLOADS["ascending-capped"]
    inst = ascending_capped(args.seed, n=args.n, p_max=args.p_max)
    work = ROOT / ".bench_work" / "order-cliff"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for order, case in (("ascending", inst), ("shuffled", shuffled(inst, args.seed))):
            path = str(work / f"{order}.txt")
            fileio.write_instance(case, path)
            c = str(int(case.p.max()))
            for mode, extra in (("stream3", ["--c", c, "--h", str(ASCENDING_H)]), ("stream4", [])):
                argv = [mode, "--epsilon", str(wl.epsilon), "--m", str(wl.m), *extra,
                        "--n", str(case.n), "--in", path, "--out", str(work / "r.json")]
                took = []
                for _ in range(args.repeats):
                    core._buckets_for.cache_clear()
                    t0 = time.perf_counter()
                    with contextlib.redirect_stdout(io.StringIO()):
                        rc = cli.main(argv)
                    took.append(time.perf_counter() - t0)
                    if rc != 0:
                        print(f"{order} {mode}: exit {rc}", file=sys.stderr)
                        return 1
                print(f"{order:9s} {mode}: {statistics.median(took) / case.n * 1e6:8.1f} us/job")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
