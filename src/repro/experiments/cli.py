"""Command line entry point: ``repro-experiments``.

Examples::

    repro-experiments list
    repro-experiments run fig10
    repro-experiments fig7 --jobs 4            # shorthand, 4 workers
    repro-experiments run all --jobs 0         # all cores
    repro-experiments report --jobs 8
    repro-experiments cache info
    repro-experiments cache clear
    repro-experiments run fig7 --oracle        # live protocol oracle
    repro-experiments record-trace swim.trace --mechanism Burst_TH
    repro-experiments verify-trace swim.trace  # offline re-check
    REPRO_SCALE=0.5 repro-experiments run fig12   # quicker sweep

Matrix cells are parallelised across ``--jobs`` (or ``REPRO_JOBS``)
worker processes and persistently cached under ``.repro-cache/`` — a
re-run of a figure whose cells are already on disk simulates nothing.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from typing import List, Optional


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'A Burst Scheduling "
            "Access Reordering Mechanism' (HPCA 2007)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    runner_p = sub.add_parser(
        "run", help="run one experiment (or 'all'); 'run' may be omitted"
    )
    runner_p.add_argument("experiment", help="experiment id or 'all'")
    reporter = sub.add_parser(
        "report", help="run everything and write EXPERIMENTS.md"
    )
    reporter.add_argument(
        "path", nargs="?", default="EXPERIMENTS.md",
        help="output path (default: EXPERIMENTS.md)",
    )
    for command in (runner_p, reporter):
        command.add_argument(
            "--jobs", "-j", type=int, default=None, metavar="N",
            help=(
                "worker processes for matrix cells (0 = all cores; "
                "default: the REPRO_JOBS env var, then 1)"
            ),
        )
        command.add_argument(
            "--no-progress", action="store_true",
            help="suppress the live cells-done progress line",
        )
        command.add_argument(
            "--oracle", action="store_true",
            help=(
                "attach the independent DDR2 protocol-conformance "
                "oracle to every simulation (same as REPRO_ORACLE=1); "
                "any command-timing violation aborts the run"
            ),
        )
    cache = sub.add_parser(
        "cache", help="manage the persistent result cache (.repro-cache/)"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser(
        "info", help="entry count, size and code-version breakdown"
    )
    cache_sub.add_parser("clear", help="delete every cached result")
    gc = cache_sub.add_parser(
        "gc",
        help="evict least-recently-used entries until the store fits",
    )
    gc.add_argument(
        "--max-bytes", required=True, metavar="N",
        help="size bound; accepts suffixes K/M/G (e.g. 64M)",
    )
    record = sub.add_parser(
        "record-trace",
        help="run one benchmark and save its SDRAM command trace",
    )
    record.add_argument("path", help="output trace file (JSON lines)")
    record.add_argument(
        "--mechanism", default="Burst_TH",
        help="access reordering mechanism (default Burst_TH)",
    )
    record.add_argument(
        "--benchmark", default="swim",
        help="SPEC CPU2000 profile to drive (default swim)",
    )
    record.add_argument(
        "--accesses", type=int, default=1500,
        help="accesses to simulate (default 1500)",
    )
    record.add_argument("--seed", type=int, default=1)
    verify = sub.add_parser(
        "verify-trace",
        help=(
            "replay a saved command trace through the independent "
            "protocol oracle"
        ),
    )
    verify.add_argument("path", help="trace file written by record-trace")
    return parser


def _settings(args: argparse.Namespace):
    """The environment's settings with ``--jobs``, ``--no-progress``
    and ``--oracle`` applied, or ``None`` when no such flag is given:
    every cell the command resolves, whichever experiment asks for it,
    runs under them.  A flag wins over its variable, which is not read."""
    from repro.settings import Settings

    given: dict = {}
    if getattr(args, "jobs", None) is not None:
        given["jobs"] = args.jobs
    if getattr(args, "no_progress", False):
        given["progress"] = False
    if getattr(args, "oracle", False):
        given["oracle"] = True
    return Settings.from_env(**given) if given else None


def _parse_size(raw: str) -> int:
    """Parse ``--max-bytes`` values like ``500000``, ``64M``, ``2G``."""
    text = raw.strip().upper()
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
    digits = text[:-1] if scale != 1 else text
    try:
        value = int(digits)
    except ValueError:
        raise SystemExit(
            f"error: --max-bytes must be an integer with an optional "
            f"K/M/G suffix, got {raw!r}"
        ) from None
    return value * scale


def _cache_main(args: argparse.Namespace) -> int:
    from repro.experiments import runner
    from repro.settings import setting

    if args.cache_command == "clear":
        removed = runner.cache_clear()
        print(f"removed {removed} cached result(s) from {setting('cache_dir')}")
        return 0
    if args.cache_command == "gc":
        removed, remaining = runner.cache_gc(_parse_size(args.max_bytes))
        print(
            f"evicted {removed} file(s) from {setting('cache_dir')}; "
            f"{remaining} bytes remain"
        )
        return 0
    info = runner.cache_info()
    print(f"cache dir     {info['dir']}")
    print(f"entries       {info['entries']}"
          f" ({info['current_entries']} for current code version)")
    print(f"size          {info['bytes'] / 1024:.1f} KiB")
    print(f"code version  {info['code_version']}")
    if info["by_benchmark"]:
        print("per benchmark:")
        for bench, count in info["by_benchmark"].items():
            print(f"  {bench:12s} {count}")
    return 0


def _record_trace_main(args: argparse.Namespace) -> int:
    """Run one closed-loop benchmark and save the channel-0 trace."""
    from repro.controller.system import MemorySystem
    from repro.cpu.core import OoOCore
    from repro.dram.tracer import ChannelTracer, save_trace
    from repro.sim.config import baseline_config
    from repro.workloads.spec2000 import make_benchmark_trace

    if args.accesses < 1:
        print(
            f"error: --accesses must be at least 1, got {args.accesses}",
            file=sys.stderr,
        )
        return 1
    # A single channel so the whole command stream lands in one file.
    config = baseline_config(channels=1)
    system = MemorySystem(config, args.mechanism, oracle=True)
    tracer = ChannelTracer(system.channels[0])
    trace = make_benchmark_trace(args.benchmark, args.accesses, args.seed)
    OoOCore(system, trace).run()
    save_trace(
        args.path,
        tracer.commands,
        config.timing,
        ranks=config.ranks,
        banks=config.banks,
    )
    checked = sum(o.commands_checked for o in system.oracles)
    print(
        f"recorded {len(tracer)} commands "
        f"({args.benchmark} x {args.mechanism}, {args.accesses} accesses) "
        f"to {args.path}; oracle verified {checked} live"
    )
    return 0


def _verify_trace_main(args: argparse.Namespace) -> int:
    """Replay a saved trace through the offline protocol oracle."""
    from repro.dram.oracle import verify_trace
    from repro.dram.tracer import load_trace

    trace = load_trace(args.path)
    violations = verify_trace(args.path)
    if violations:
        for violation in violations:
            print(str(violation), file=sys.stderr)
        print(
            f"{args.path}: {len(violations)} protocol violation(s) in "
            f"{len(trace.commands)} commands",
            file=sys.stderr,
        )
        return 1
    print(
        f"{args.path}: verified {len(trace.commands)} commands on "
        f"{trace.timing.name} ({trace.ranks} ranks x {trace.banks} banks), "
        f"0 violations"
    )
    return 0


def _summary() -> str:
    """One-line account of where this invocation's cells came from."""
    from repro.experiments.runner import TOTALS

    return (
        f"[matrix totals: {TOTALS.executed} simulated, "
        f"{TOTALS.cached_disk} from disk cache, "
        f"{TOTALS.cached_memo} memoised]"
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the repro-experiments command."""
    from repro.errors import ReproError
    from repro.experiments import EXPERIMENTS
    from repro.settings import using

    argv = list(sys.argv[1:] if argv is None else argv)
    # Shorthand: `repro-experiments fig7 --jobs 4` == `... run fig7 ...`.
    if argv and (argv[0] in EXPERIMENTS or argv[0] == "all"):
        argv.insert(0, "run")
    args = _build_parser().parse_args(argv)
    try:
        chosen = _settings(args)
        with nullcontext() if chosen is None else using(chosen):
            return _dispatch(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS

    if args.command == "cache":
        return _cache_main(args)
    if args.command == "record-trace":
        return _record_trace_main(args)
    if args.command == "verify-trace":
        return _verify_trace_main(args)
    if args.command == "report":
        from repro.experiments.report import write_report

        path = write_report(args.path)
        print(_summary())
        print(f"wrote {path}")
        return 0
    if args.command == "list":
        for name, module in EXPERIMENTS.items():
            summary = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{name:12s} {summary}")
        return 0
    names = (
        list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    )
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s) {unknown}; "
            f"available: {sorted(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    for name in names:
        started = time.time()
        print(f"== {name} ==")
        print(EXPERIMENTS[name].main())
        print(f"[{name} took {time.time() - started:.1f}s]")
        print(_summary() + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
