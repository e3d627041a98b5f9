"""``repro-sim`` — the general-purpose simulator front end.

One command runs any workload (SPEC profile, multiprogrammed mix,
microbenchmark or external trace file) through any mechanism on any
machine variant, and reports the statistics as text, JSON or CSV::

    repro-sim --benchmark swim --mechanism Burst_TH
    repro-sim --benchmark swim --mechanism Burst_TH --threshold 40
    repro-sim --mix swim,mcf,gcc,art --mechanism RowHit
    repro-sim --micro stream --mechanism BkInOrder --device DDR_266
    repro-sim --trace mytrace.txt --json

(The experiment harness that regenerates the paper's tables/figures is
the separate ``repro-experiments`` command.)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro import dram
from repro.analysis.export import export_rows
from repro.controller.registry import MECHANISMS
from repro.controller.system import MemorySystem
from repro.cpu.core import OoOCore
from repro.errors import ReproError
from repro.sim.config import ROW_POLICIES, baseline_config
from repro.workloads import make_trace
from repro.workloads.microbench import MICROBENCHMARKS
from repro.workloads.spec2000 import benchmark_names
from repro.workloads.trace import load_trace, trace_rows

#: Device presets selectable with --device — a view of the generation
#: registry, so a profile appended to ``timing.GENERATIONS`` shows up
#: here without a second ladder to keep in sync.
DEVICES = dict(dram.timing.GENERATION_PRESETS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description=(
            "Simulate a workload on the burst-scheduling memory system "
            "(HPCA 2007 reproduction)."
        ),
    )
    # Not required at the argparse level: --resume snapshots carry
    # their own workload metadata (validated in main()).
    source = parser.add_mutually_exclusive_group(required=False)
    source.add_argument(
        "--benchmark", choices=benchmark_names(),
        help="synthetic SPEC CPU2000 profile",
    )
    source.add_argument(
        "--mix", help="comma-separated benchmarks, one core each (max 4)"
    )
    source.add_argument(
        "--micro", choices=sorted(MICROBENCHMARKS),
        help="directed microbenchmark pattern",
    )
    source.add_argument("--trace", help="external trace file (gap R|W addr [source])")

    parser.add_argument(
        "--mechanism", default="Burst_TH", choices=sorted(MECHANISMS),
        help="access reordering mechanism (default Burst_TH)",
    )
    parser.add_argument(
        "--accesses", type=int, default=6000,
        help="accesses to generate (ignored for --trace)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--threshold", type=int, default=None,
        help="Burst_TH threshold override (0..write queue size)",
    )
    parser.add_argument(
        "--device", choices=sorted(DEVICES), default="DDR2_800",
        help="DRAM generation (default DDR2_800)",
    )
    parser.add_argument(
        "--mapping", default="page_interleave",
        choices=("page_interleave", "cacheline_interleave", "permutation"),
    )
    parser.add_argument(
        "--row-policy", default="open_page", choices=ROW_POLICIES
    )
    parser.add_argument(
        "--oracle", action="store_true",
        help=(
            "attach the independent DDR2 protocol-conformance oracle "
            "(every SDRAM command is re-verified against a second "
            "implementation of the timing rules; violations abort)"
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    parser.add_argument("--csv", help="write the summary as a one-row CSV file")
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help=(
            "enable checkpointing: write snapshots under DIR (on "
            "SIGTERM, and periodically with --checkpoint-every); a "
            "terminated run exits 143 after saving"
        ),
    )
    parser.add_argument(
        "--checkpoint-every", type=int, metavar="N",
        help="also snapshot every N memory cycles (needs --checkpoint-dir)",
    )
    parser.add_argument(
        "--resume", metavar="FILE",
        help=(
            "resume from a snapshot file; the workload, mechanism and "
            "machine variant are restored from the snapshot metadata, "
            "so no source argument is needed"
        ),
    )
    parser.add_argument(
        "--stats-out", metavar="FILE",
        help=(
            "write the full unrounded statistics bundle as canonical "
            "JSON (for byte-exact comparison of resumed runs)"
        ),
    )
    return parser


def _make_trace(args):
    if args.trace:
        return args.trace, load_trace(args.trace)
    if args.mix:
        names = [n.strip() for n in args.mix.split(",") if n.strip()]
        workload = "+".join(names)
    else:
        workload = args.benchmark or args.micro
    return workload, make_trace(workload, args.accesses, args.seed)


#: Workload/machine knobs a snapshot records so --resume can rebuild
#: the exact run without any source arguments.
_META_FIELDS = (
    "benchmark", "mix", "micro", "trace", "mechanism", "accesses",
    "seed", "threshold", "device", "mapping", "row_policy", "oracle",
)


def _args_meta(args) -> dict:
    return {field: getattr(args, field) for field in _META_FIELDS}


def _apply_meta(args, meta: dict) -> None:
    """Overwrite workload/machine args from a snapshot's metadata."""
    missing = [field for field in _META_FIELDS if field not in meta]
    if missing:
        raise ReproError(
            f"snapshot metadata is missing {missing}; it was not saved "
            "by repro-sim and cannot be resumed from the CLI"
        )
    for field in _META_FIELDS:
        setattr(args, field, meta[field])


def _run(args):
    if args.accesses < 1:
        raise ReproError(
            f"--accesses must be at least 1, got {args.accesses}"
        )
    if args.resume:
        from repro.checkpoint import read_header

        _apply_meta(args, read_header(args.resume).get("meta") or {})
    workload, trace = _make_trace(args)
    # One tenant per distinct source tag: a --mix core or a trace
    # file's fourth column (Burst_QW sizes its write quota from it).
    # An empty trace file still runs, as one idle source.
    config = baseline_config(
        timing=DEVICES[args.device],
        mapping=args.mapping,
        row_policy=args.row_policy,
        sources=len({row[3] for row in trace_rows(trace)}) or 1,
    )
    if args.threshold is not None:
        config = config.with_threshold(args.threshold)
    system = MemorySystem(
        config, args.mechanism, oracle=True if args.oracle else None
    )
    core = OoOCore(system, trace)
    checkpointer = None
    if args.checkpoint_dir:
        from repro.checkpoint import Checkpointer

        path = os.path.join(
            args.checkpoint_dir, f"{workload}-{args.mechanism}.ckpt"
        )
        checkpointer = Checkpointer(
            path, every=args.checkpoint_every, meta=_args_meta(args)
        )
        checkpointer.install_signal_handler()
    elif args.checkpoint_every:
        raise ReproError("--checkpoint-every requires --checkpoint-dir")
    if args.resume:
        from repro.checkpoint import load_checkpoint

        load_checkpoint(args.resume, core)
    try:
        result = core.run(checkpointer=checkpointer)
    finally:
        # Restore SIGTERM once the polling loop is gone, so in-process
        # callers (tests) don't leak a flag-only handler that would
        # absorb later real termination signals.
        if checkpointer is not None:
            checkpointer.uninstall_signal_handler()
    stats = system.stats
    if args.stats_out:
        with open(args.stats_out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"stats": stats.to_dict(), "result": result.to_dict()},
                sort_keys=True,
            ))
    summary = {
        "workload": workload,
        "mechanism": system.mechanism_name,
        "device": args.device,
        "mapping": args.mapping,
        "accesses": len(trace),
        "mem_cycles": result.mem_cycles,
        "cpu_cycles": result.cpu_cycles,
        "instructions": result.instructions,
        "ipc": round(result.ipc, 4),
        **{k: round(v, 4) for k, v in stats.report().items()},
    }
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the repro-sim command."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not (args.benchmark or args.mix or args.micro or args.trace
            or args.resume):
        parser.error(
            "one of --benchmark/--mix/--micro/--trace (or --resume) "
            "is required"
        )
    try:
        summary = _run(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.csv:
        headers = list(summary)
        export_rows(args.csv, headers, [[summary[h] for h in headers]])
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        width = max(len(k) for k in summary)
        for key, value in summary.items():
            print(f"{key.ljust(width)}  {value}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
