"""schedsketch benchmark: one workload in one process, one JSON result line.

    python3 perfbench/run.py --workload layered-60k --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src/``
and works in ``.bench_work/``.  It drives the program through
``schedsketch.cli.main`` with the argv a user would type and checks
every output with `checker`, which does not import schedsketch.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
package's layers with `tracer.Tracer`, prints the per-layer metrics and
writes the spans to ``.bench_out/``.  See README.md for the workloads,
the metrics and the layer each one belongs to.
"""

from __future__ import annotations

import os

# Single-threaded numpy: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import shutil
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "schedsketch").is_dir():  # never fall back to an installed copy
    sys.exit(f"perfbench: no schedsketch package under {SRC}")
sys.path.insert(0, str(SRC))
try:
    from schedsketch import cli, core, fileio
    from schedsketch.core import AlgoParams
    from schedsketch.streaming import STREAMING_ALGORITHMS
except ModuleNotFoundError as exc:
    sys.exit(f"perfbench: cannot import schedsketch from {SRC}: {exc}")

import checker
from tracer import Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 5  # setup_s is the median of this many builds of the inputs
UPDATE_PASS_S = 1.0  # each traced update pass repeats until this long has passed
REFERENCE_S = 0.02  # nominal time of `reference_loop`; see `Bench.timed`
STREAM_MODES = ("stream1", "stream2", "stream3", "stream4")
ARC_MODES = ("stream2", "stream4")


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class Bench:
    """One workload at one seed: set-up, checked rounds of calls, metrics."""

    def __init__(self, workload, seed: int, work: Path):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.path = str(work / "instance.txt")
        self.tracer = None
        self.times: dict[str, list[float]] = defaultdict(list)  # op key -> seconds per call
        self.ratios: list[float] = []
        self.samples: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # failures outside the kept fault
        self._reference = 0.0  # last `reference_loop` time, see `timed`

    # -- set-up --------------------------------------------------------------

    def setup(self) -> float:
        """Build and write the instance file; returns the median build time."""
        took = []
        self._reference = reference_loop()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inst = self.wl.build(self.seed)
            fileio.write_instance(inst, self.path)
            took.append(self.timed(time.perf_counter() - t0))
        self.ref = checker.reference(inst.p, inst.arcs, self.wl.m)
        if not (inst.depth == self.ref.depth).all():
            raise RuntimeError(f"{self.wl.name}: generated depths disagree with the arcs")
        self.n = self.ref.n
        self.events = self.n + len(self.ref.arcs)
        self.c = self.ref.p_max
        return statistics.median(took)

    def timed(self, seconds: float) -> float:
        """Wall time of the step just run, in reference seconds.

        A shared virtual machine can change speed by a third and more
        from one stretch of seconds to the next, for every process alike.
        `reference_loop` runs before and after each timed step; the
        step's wall time is scaled by REFERENCE_S over the mean of the
        two, so a run on a slow stretch reads the same as one on a fast
        stretch.
        """
        before = self._reference
        self._reference = reference_loop()
        return seconds * REFERENCE_S / ((before + self._reference) / 2)

    # -- one CLI call ----------------------------------------------------------

    def call(self, argv: list[str]) -> tuple[float, str]:
        """Run ``schedsketch <argv>`` in process; returns (seconds, stdout).

        Raises on a non-zero exit.  The package caches bucket tables per
        delta for the life of a process; clearing it first makes every
        call pay the table build, as a fresh ``schedsketch`` process does.
        """
        core._buckets_for.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.open("cli.main") if self.tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        finally:
            seconds = time.perf_counter() - t0
            if span is not None:
                self.tracer.close(span)
        if rc != 0:
            raise RuntimeError(f"schedsketch {argv[0]} exited {rc}: {err.getvalue().strip()}")
        return seconds, out.getvalue()

    def stream_argv(self, mode: str) -> list[str]:
        argv = [mode, "--epsilon", str(self.wl.epsilon), "--m", str(self.wl.m)]
        if mode in ("stream1", "stream3"):
            argv += ["--c", str(self.c), "--h", str(self.ref.h)]
        if mode in ("stream3", "stream4"):
            argv += ["--n", str(self.n)]  # stays one-pass: no pre-scan for n
        return argv + ["--in", self.path, "--out", str(self.work / f"{mode}.json")]

    # -- operations: each returns (seconds, problems) --------------------------

    def stream(self, mode: str) -> tuple[float, list[str]]:
        seconds, _ = self.call(self.stream_argv(mode))
        with open(self.work / f"{mode}.json") as fh:
            doc = json.load(fh)
        self.ratios.append(doc["A"] / self.ref.lb)
        c = self.c if mode == "stream1" else None
        return seconds, checker.check_stream(self.ref, doc, mode, self.wl.epsilon, c)

    def schedule(self) -> tuple[float, list[str]]:
        sks = str(self.work / f"{self.wl.schedule_from}.json")
        csv = str(self.work / "schedule.csv")
        argv = ["schedule", "--sks", sks, "--in", self.path, "--m", str(self.wl.m), "--out", csv]
        seconds, _ = self.call(argv)
        with open(sks) as fh:
            times = json.load(fh)["sks"]
        return seconds, checker.check_schedule(self.ref, checker.read_schedule_csv(csv), times)

    def sample(self, sset, seed: int) -> tuple[float, list[str]]:
        seconds, out = self.call(sset.argv(seed))
        doc = json.loads(out)
        self.samples.append(doc["samples"])
        problems = checker.check_sample(doc, sset.cstar, sset.epsilon)
        return seconds, [f"{sset.label} seed {seed}: {p}" for p in problems]

    def op(self, key: str, fn, kept_fault: bool = False) -> None:
        """Run one checked operation and count it.

        A kept-fault operation may fail its output check without making
        the run incorrect; a crash or a non-zero exit always does.
        """
        self.attempted += 1
        try:
            seconds, problems = fn()
        except Exception as exc:  # a crash in the program fails this operation, not the run
            self.failed += 1
            self.problems.append(f"{key}: {type(exc).__name__}: {exc}")
            return
        self.times[key].append(self.timed(seconds))
        if problems:
            self.failed += 1
            if not kept_fault:
                self.problems.extend(problems)

    def round(self) -> None:
        """Every operation of the workload, in a fixed order.

        File operations run once per round, or `Workload.repeats` times
        in passes after the first.  A shared host's speed can change from
        one second to the next, so the sampler calls are spread between
        the file operations instead of run back to back: their median
        then samples the whole round, not one stretch of it.
        """
        repeats = dict(self.wl.repeats)
        big = []
        for i in range(max(repeats.values(), default=1)):  # first pass: every file operation
            for key in (*STREAM_MODES, "schedule"):
                if i < repeats.get(key, 1):
                    fn = self.schedule if key == "schedule" else (lambda mode=key: self.stream(mode))
                    big.append((key, fn))
        small = [(sset, seed) for seed in self.wl.sampler_seeds for sset in self.wl.samplers]
        for i, (key, fn) in enumerate(big):
            self.op(key, fn)
            for sset, seed in small[i * len(small) // len(big):(i + 1) * len(small) // len(big)]:
                self.op(sset.cmd, lambda: self.sample(sset, seed), sset.kept_fault)

    def rounds(self, seconds: float) -> int:
        """Whole rounds until ``seconds`` have passed (at least one)."""
        self._reference = reference_loop()
        t0 = time.perf_counter()
        count = 0
        while count == 0 or time.perf_counter() - t0 < seconds:
            self.round()
            count += 1
        return count

    # -- untimed passes --------------------------------------------------------

    def parsed_events(self) -> list:
        return list(fileio.iter_stream(self.path))

    def params(self, mode: str) -> AlgoParams:
        """The AlgoParams `stream_argv` gives the CLI for ``mode``."""
        kwargs = {}
        if mode in ("stream1", "stream3"):
            kwargs.update(c=self.c, h=self.ref.h)
        if mode in ("stream3", "stream4"):
            kwargs["n"] = self.n
        return AlgoParams(epsilon=self.wl.epsilon, m=self.wl.m, **kwargs)

    def bytes_per_job(self, events: list, mode: str) -> float:
        """tracemalloc peak of one stream pass over pre-parsed events, per job.

        The events are parsed before tracing starts: tracing every
        allocation of the line parser as well makes this untimed pass
        about five times slower.
        """
        gc.collect()
        core._buckets_for.cache_clear()
        tracemalloc.start()
        try:
            report = STREAMING_ALGORITHMS[mode](events, self.params(mode))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        doc = {"A": report.A, "sks": report.schedule_sketch.times}
        self.problems += checker.check_stream(self.ref, doc, mode, self.wl.epsilon, None)
        return peak / self.n

    def update_passes(self, events: list) -> tuple[dict[str, float], int]:
        """Stream functions alone on pre-parsed events: ns/event per mode, peak sketch nodes."""
        per_event = {}
        peak = 0
        for mode in STREAM_MODES:
            params = self.params(mode)
            took = []
            stop = time.perf_counter() + UPDATE_PASS_S
            while not took or time.perf_counter() < stop:
                core._buckets_for.cache_clear()
                t0 = time.perf_counter()
                report = STREAMING_ALGORITHMS[mode](events, params)
                took.append(time.perf_counter() - t0)
            per_event[mode] = statistics.median(took) / self.events * 1e9
            peak = max(peak, report.extras.get("peak_node_count", 0))
        return per_event, peak

    # -- metrics -----------------------------------------------------------------

    def reset_timings(self) -> None:
        """Forget timed calls; operation counts and problems stay."""
        self.times.clear()
        self.ratios.clear()
        self.samples.clear()

    def call_metrics(self) -> dict[str, tuple[float, str]]:
        """End-to-end metrics that come from the timed CLI calls."""
        med = {key: statistics.median(v) for key, v in self.times.items()}
        out = {}
        for mode in STREAM_MODES:
            out[f"{mode}_events_per_s"] = (self.events / med[mode], "events/s")
        out["schedule_jobs_per_s"] = (self.n / med["schedule"], "jobs/s")
        out["sample1_ms"] = (med["sample1"] * 1e3, "ms")
        out["sample2_ms"] = (med["sample2"] * 1e3, "ms")
        out["sample_ids_per_run"] = (statistics.fmean(self.samples), "ids")
        out["stream_approx_ratio"] = (max(self.ratios), "ratio")
        return out


def layer_metrics(tracer, bench: Bench, rounds: int, update_ns: dict, peak_nodes: int) -> dict:
    """Per-layer metrics from the traced rounds and the update passes."""
    spans, hot = tracer.summary()
    zero_span = {"calls": 0, "ns": 0, "self_ns": 0, "size": 0}
    zero_hot = {"calls": 0, "ns": 0, "hits": 0}

    def span(name):
        return spans.get(name, zero_span)

    def hot_(name):
        return hot.get(name, zero_hot)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    samplers = span("sampling.sample1")["calls"] + span("sampling.sample2")["calls"]
    out = {}
    it = hot_("fileio.iter_stream")
    out["fileio.iter_stream.ns_per_line"] = (ratio(it["ns"], it["calls"]), "ns")
    ri = span("fileio.read_instance")
    out["fileio.read_instance.ns_per_line"] = (ratio(ri["self_ns"], ri["calls"] * bench.events), "ns")
    ws = span("fileio.write_schedule_csv")
    out["fileio.write_schedule_csv.ns_per_job"] = (ratio(ws["ns"], ws["calls"] * bench.n), "ns")
    for name, unit, scale in (("core.index", "ns", 1.0), ("core.floor_log", "us", 1e-3)):
        h = hot_(name)
        out[f"{name}.calls"] = (h["calls"] / rounds, "count")
        out[f"{name}.{unit}_per_call"] = (ratio(h["ns"], h["calls"], scale), unit)
    ia = span("core.index_array")
    out["core.index_array.ns_per_id"] = (ratio(ia["ns"], ia["size"]), "ns")
    dp = span("core.derive_params")
    out["core.derive_params.us"] = (ratio(dp["ns"], dp["calls"], 1e-3), "us")
    for name in ("sketch.add", "sketch.move"):
        h = hot_(name)
        out[f"{name}.calls"] = (h["calls"] / rounds, "count")
        out[f"{name}.ns_per_call"] = (ratio(h["ns"], h["calls"]), "ns")
    dt = hot_("sketch.depth_table")
    out["sketch.depth_table.ns_per_call"] = (ratio(dt["ns"], dt["calls"]), "ns")
    pr = hot_("sketch.prune_smallest")
    out["sketch.prune_smallest.calls"] = (pr["calls"] / rounds, "count")
    out["sketch.prune_smallest.evictions"] = (pr["hits"] / rounds, "count")
    out["sketch.peak_nodes"] = (peak_nodes, "count")
    dl = span("sketch.depth_loads")
    out["sketch.depth_loads.us"] = (ratio(dl["ns"], dl["calls"], 1e-3), "us")
    for mode in STREAM_MODES:
        out[f"streaming.{mode}.update_ns_per_event"] = (update_ns[mode], "ns")
        sm = span(f"streaming.{mode}")
        out[f"streaming.{mode}.self_ns_per_event"] = (ratio(sm["self_ns"], sm["calls"] * bench.events), "ns")
    ec = span("sampling.estimate_counts")
    out["sampling.estimate_counts.ms"] = (ratio(ec["ns"], ec["calls"], 1e-6), "ms")
    ew = span("sampling.estimate_wmax")
    out["sampling.estimate_wmax.us"] = (ratio(ew["ns"], ew["calls"], 1e-3), "us")
    fe = span("sampling.fetch")
    out["sampling.fetch.ns_per_id"] = (ratio(fe["ns"], fe["size"]), "ns")
    out["sampling.ids_fetched"] = (ratio(fe["size"], samplers), "ids")
    out["sampling.full_scans"] = (ec["size"] / rounds, "count")
    for name in ("schedule.sketch_to_schedule", "schedule.validate_schedule"):
        s = span(name)
        out[f"{name}.ns_per_job"] = (ratio(s["ns"], s["calls"] * bench.n), "ns")
    cm = span("cli.main")
    out["cli.main.self_ms"] = (ratio(cm["self_ns"], cm["calls"], 1e-6), "ms")
    return out


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    bench = Bench(workload, seed, work)
    setup_s = bench.setup()
    if not trace:
        events = bench.parsed_events()
        bytes_per_job = {mode: bench.bytes_per_job(events, mode) for mode in ARC_MODES}
        del events
        bench.rounds(seconds)
        metrics = {"setup_s": (setup_s, "s"), **bench.call_metrics()}
        for mode in ARC_MODES:
            metrics[f"{mode}_bytes_per_job"] = (bytes_per_job[mode], "B/job")
    else:
        # One untraced round first: the same calls timed without wrappers
        # give the tracing overhead.
        bench.rounds(0)
        untraced = {k: v for k, (v, _) in bench.call_metrics().items()}
        bench.reset_timings()
        tracer = bench.tracer = Tracer()
        tracer.install()
        try:
            rounds = bench.rounds(seconds)
        finally:
            tracer.uninstall()
            bench.tracer = None
        update_ns, peak_nodes = bench.update_passes(bench.parsed_events())
        metrics = layer_metrics(tracer, bench, rounds, update_ns, peak_nodes)
        traced = {k: v for k, (v, _) in bench.call_metrics().items()}
        overhead = {k: {"untraced": untraced[k], "traced": traced[k]} for k in traced}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{workload.name}-seed{seed}.json"
        tracer.dump(str(span_file), {"workload": workload.name, "seed": seed, "rounds": rounds,
                                     "tracing_overhead": overhead})
        print(f"spans: {span_file.relative_to(ROOT)}")
        print("tracing overhead: " + json.dumps(overhead))
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
