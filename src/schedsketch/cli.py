"""Command-line surface.

Subcommands: stream1..stream4 (one-pass approximations), sample1/2
(randomized sublinear approximations), schedule (second pass from a
result file), oracle (exact / list baseline), gen (instance files),
and bench (seeded trial sweeps to CSV).

Exit codes: 0 success, 2 bad arguments, 3 input-contract violation,
4 sketch infeasible for the given instance, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import fileio
from .core import GIVEN, SAMPLED, AlgoParams, ceil_div
from .errors import InputContractError, InvariantViolationError, ParamError, SketchInfeasibleError
from .model import Instance
from .schedule import schedule_instance, validate_schedule
from .sketch import sketch_to_json
from .streaming import STREAMING_ALGORITHMS

STREAM_CMDS = tuple(STREAMING_ALGORITHMS)
SAMPLE_CMDS = SAMPLED  # from core, so that naming the commands imports no sampler
COMMANDS = STREAM_CMDS + SAMPLE_CMDS + ("schedule", "oracle", "gen", "bench")
GEN_KEYS = ("m", "q", "h", "n", "alpha", "c", "pbig", "small", "shape", "density", "seed")  # gen's flags: spec keys
EXIT_CODES = {ParamError: 2, OSError: 2, InputContractError: 3, SketchInfeasibleError: 4, InvariantViolationError: 5}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--c", type=int)
    p.add_argument("--h", type=int)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--confidence-scale", type=float, default=1.0)
    p.add_argument("--tight", action="store_true", help="skip empty depth levels (excluded from guarantees)")
    p.add_argument("--in", dest="infile", required=True, help="instance file or gen-spec")
    p.add_argument("--out", help="result file (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_command(sub, cmd: str) -> None:
    """Add subcommand ``cmd`` and its arguments to the subparsers action ``sub``."""
    if cmd in STREAM_CMDS + SAMPLE_CMDS:
        p = sub.add_parser(cmd)
        _add_common(p)
        if cmd in SAMPLE_CMDS:
            p.add_argument("--trials", type=int, default=1)
        else:
            p.add_argument("--sketch-out", help="persist the final input sketch as JSON")
    elif cmd == "schedule":
        p = sub.add_parser("schedule", help="second pass: sketch + instance -> concrete schedule")
        p.add_argument("--sks", required=True, help="result JSON carrying the sketch")
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--out", required=True, help="schedule CSV")
        p.add_argument("--report", help="violation report JSON (default: <out>.violations.json)")
    elif cmd == "oracle":
        p = sub.add_parser("oracle", help="exact or list-scheduling makespan")
        p.add_argument("which", choices=("exact", "list"))
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--m", type=int)
    elif cmd == "gen":
        from .generators import FAMILIES

        p = sub.add_parser("gen", help="write an instance file")
        p.add_argument("--family", required=True, choices=tuple(FAMILIES))
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--m", type=int, default=1)
        p.add_argument("--q", type=int)
        p.add_argument("--h", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--alpha", type=float)
        p.add_argument("--c", type=int)
        p.add_argument("--pbig", type=int)
        p.add_argument("--small", type=int)
        p.add_argument("--shape", help="layered per-depth counts, e.g. 3/4/5")
        p.add_argument("--density", type=float)
        p.add_argument("--no-depths", action="store_true", help="omit depths from job lines")
    else:
        p = sub.add_parser("bench", help="seeded trials -> CSV of (seed, A, C* or bound, ratio, ...)")
        _add_common(p)
        p.add_argument("--algo", default="sample1", choices=STREAM_CMDS + SAMPLE_CMDS)
        p.add_argument("--trials", type=int, default=10)


def build_parser(cmd: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; with ``cmd``, one that holds only that subcommand.

    The one-command parser keeps the full one's usage line (the list of
    every command), so its help and error text are the same for argv
    that names ``cmd`` first.
    """
    ap = argparse.ArgumentParser(prog="schedsketch", description=__doc__)
    # the full parser keeps no metavar: one would rename the command in its "required: cmd" error
    every = "{" + ",".join(COMMANDS) + "}"
    sub = ap.add_subparsers(dest="cmd", required=True, metavar=None if cmd is None else every)
    for name in COMMANDS if cmd is None else (cmd,):
        _add_command(sub, name)
    return ap


def _params(args, n: int | None = None) -> AlgoParams:
    return AlgoParams(
        epsilon=args.epsilon,
        m=args.m,
        c=args.c,
        h=args.h,
        alpha=args.alpha,
        n=args.n if args.n is not None else n,
        seed=args.seed,
        confidence_scale=args.confidence_scale,
    )


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when there is none."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit_result(report, args) -> None:
    if args.format == "csv":
        text = "algorithm,A,t_h,sketch_nodes,samples,update_count,guarantee_condition_met\n" + (
            f"{report.algorithm},{report.A},{report.schedule_sketch.times[-1]},"
            f"{report.sketch_node_count},{report.samples_drawn},{report.update_count},"
            f"{report.guarantee_condition_met}\n"
        )
    else:
        text = _json(fileio.report_to_dict(report))
    _write(text, args.out)


def _run_stream(args) -> int:
    path = None  # the file streamed, if any
    if fileio.looks_like_gen_spec(args.infile):
        inst = fileio.instance_from_spec(args.infile)
        events = inst.chunks(with_depth=args.cmd in GIVEN)
        n = inst.n
    else:  # one pass, which a pipe allows: the modes that cut by n count it as they read
        path = args.infile
        n = None  # `_params` takes --n when it is given
        events = fileio.iter_chunks(path)
    try:
        report = STREAMING_ALGORITHMS[args.cmd](events, _params(args, n=n), tight=args.tight)
    except InputContractError as exc:  # an error of one row: name its line
        if path is None or exc.row is None:
            raise
        raise fileio.located(path, exc) from None
    if args.sketch_out:
        with open(args.sketch_out, "w") as fh:
            fh.write(sketch_to_json(report.extras["input_sketch"]) + "\n")
    _emit_result(report, args)
    return 0


def _load_instance(path: str, m: int | None = None) -> Instance:
    """Read an instance file and set its machine count when ``m`` is given."""
    inst = fileio.read_instance(path)
    if m is not None:
        inst = replace(inst, m=m)  # checks m, which a sidecar's m would hide from `read_instance`
    return inst


def _access_for(args):
    from .sampling import ArrayAccess

    if fileio.looks_like_gen_spec(args.infile):
        return fileio.access_from_spec(args.infile)
    return ArrayAccess(_load_instance(args.infile))


def _run_sample(args) -> int:
    from .sampling import SAMPLING_ALGORITHMS

    access = _access_for(args)
    fn = SAMPLING_ALGORITHMS[args.cmd]
    if args.trials <= 1:
        report = fn(access, _params(args), tight=args.tight)
        _emit_result(report, args)
        return 0
    base = _params(args)
    reports = _run_trials(fn, access, base, args.trials, args.tight)
    docs = [fileio.report_to_dict(r) for r in reports]
    _write(_json({"algorithm": args.cmd, "trials": docs}), args.out)
    return 0


def _worker_count() -> int:
    env = os.environ.get("SCHEDSKETCH_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ParamError(f"SCHEDSKETCH_THREADS must be an integer, got {env!r}") from None
    return min(8, os.cpu_count() or 1)


def _run_trials(fn, access, base_params: AlgoParams, trials: int, tight: bool):
    def run(seed: int):
        return fn(access, replace(base_params, seed=seed), tight=tight)

    seeds = [base_params.seed + i for i in range(trials)]
    workers = min(_worker_count(), trials)  # the count first, so a bad SCHEDSKETCH_THREADS exits 2 for any trials
    if workers <= 1:
        return [run(s) for s in seeds]
    from concurrent.futures import ThreadPoolExecutor  # only where a pool runs: the import is ~5 ms

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, seeds))


def _run_schedule(args) -> int:
    doc = fileio.read_result(args.sks)
    sks = fileio.sketch_from_result(doc)
    inst = _load_instance(args.infile, m=args.m)
    sched = schedule_instance(sks, inst)
    fileio.write_schedule_csv(sched, args.out)
    violations = validate_schedule(sched, inst)
    report_path = args.report or args.out + ".violations.json"
    fileio.write_violations(violations, report_path)
    for v in violations:
        print(f"violation: {v.kind}: {v.detail}", file=sys.stderr)
    print(f"makespan {sched.makespan}, {len(violations)} violation(s)")
    return 0 if not violations else 3


def _run_oracle(args) -> int:
    from .oracles import exact_makespan, list_schedule

    inst = _load_instance(args.infile, m=args.m)
    print(exact_makespan(inst) if args.which == "exact" else list_schedule(inst).makespan)
    return 0


def _run_gen(args) -> int:
    """Write the family's instance: the flags given are its spec keys, and the family function holds the defaults."""
    kwargs = {key: getattr(args, key) for key in GEN_KEYS if getattr(args, key) is not None}
    if "shape" in kwargs:
        kwargs["shape"] = fileio.spec_value("shape", kwargs["shape"])
    inst = fileio.build_instance(args.family, kwargs, f"gen --family {args.family}")
    fileio.write_instance(inst, args.out, with_depths=not args.no_depths)
    print(f"wrote {inst.n} jobs, {inst.arcs.shape[0]} arcs to {args.out}")
    return 0


def _known_cstar(args, access_or_inst) -> tuple[str, float]:
    from .oracles import critical_path_length
    from .sampling import ChainAccess, TwoValueAccess

    if isinstance(access_or_inst, ChainAccess):
        a = access_or_inst
        # independent unit chains pack perfectly: optimum is max(h, ceil(total/m))
        return "cstar", float(max(a.h, ceil_div(a.m * a.q * a.h, args.m)))
    if isinstance(access_or_inst, TwoValueAccess):
        if args.m == 1:
            return "cstar", float(access_or_inst.total_p)
        return "bound", float(max(ceil_div(access_or_inst.total_p, args.m), access_or_inst.p_big))
    inst = access_or_inst
    if "cstar" in inst.meta and inst.meta.get("m") == args.m:  # the constructed optimum holds for its own m
        return "cstar", float(inst.meta["cstar"])
    return "bound", float(max(ceil_div(sum(inst.p.tolist()), args.m), critical_path_length(inst)))


def _run_bench(args) -> int:
    from .sampling import SAMPLING_ALGORITHMS, ArrayAccess

    rows = []
    if args.algo in SAMPLE_CMDS:
        access = _access_for(args)
        kind, ref = _known_cstar(args, access.inst if isinstance(access, ArrayAccess) else access)
        fn = SAMPLING_ALGORITHMS[args.algo]
        reports = _run_trials(fn, access, _params(args), args.trials, args.tight)
    else:
        if fileio.looks_like_gen_spec(args.infile):
            inst = fileio.instance_from_spec(args.infile)
        else:
            inst = fileio.read_instance(args.infile)
        kind, ref = _known_cstar(args, inst)
        reports = []
        if args.trials > 0:  # a stream mode ignores the seed, so one run serves every seed's row
            fn = STREAMING_ALGORITHMS[args.algo]
            events = inst.chunks(with_depth=args.algo in GIVEN)
            reports = [fn(events, _params(args, n=inst.n), tight=args.tight)] * args.trials
    for i, rep in enumerate(reports):
        ratio = rep.A / ref if ref else float("nan")
        rows.append(
            f"{args.seed + i},{rep.A},{ref:g},{ratio:.6f},{rep.samples_drawn},{rep.sketch_node_count}"
        )
    _write("seed,A,cstar_or_bound,ratio,samples,sketch_nodes\n" + "\n".join(rows) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a call naming a known command builds only that subparser; any other argv gets the full parser's text
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        if args.cmd in STREAM_CMDS:
            return _run_stream(args)
        if args.cmd in SAMPLE_CMDS:
            return _run_sample(args)
        if args.cmd == "schedule":
            return _run_schedule(args)
        if args.cmd == "oracle":
            return _run_oracle(args)
        if args.cmd == "gen":
            return _run_gen(args)
        if args.cmd == "bench":
            return _run_bench(args)
        raise ParamError(f"unknown command {args.cmd}")
    except tuple(EXIT_CODES) as exc:
        code = next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))
        print(f"error: {'internal: ' if code == 5 else ''}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
