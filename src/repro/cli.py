"""``repro-sim`` — the general-purpose simulator front end.

One command runs any workload (SPEC profile, multiprogrammed mix,
microbenchmark or external trace file) through any mechanism on any
machine variant, and reports the statistics as text or JSON::

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
import sys
from contextlib import nullcontext
from typing import List, Optional

from repro import dram
from repro.controller.registry import MECHANISMS
from repro.controller.system import MemorySystem
from repro.cpu.core import OoOCore
from repro.errors import ConfigError, ReproError
from repro.experiments.runner import execute_cell
from repro.settings import Settings, setting, using
from repro.sim.config import ROW_POLICIES, SystemConfig, baseline_config
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
    source = parser.add_mutually_exclusive_group(required=True)
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
    parser.add_argument(
        "--stats-out", metavar="FILE",
        help=(
            "write the full unrounded statistics bundle as canonical "
            "JSON (for byte-exact comparison of resumed runs)"
        ),
    )
    return parser


def _config(args, sources: int) -> SystemConfig:
    config = baseline_config(
        timing=DEVICES[args.device],
        mapping=args.mapping,
        row_policy=args.row_policy,
        sources=sources,
    )
    if args.threshold is not None:
        config = config.with_threshold(args.threshold)
    return config


def _run(args):
    """The run's summary: a runner cell, or a direct run of a trace file."""
    if args.accesses < 1:
        raise ReproError(
            f"--accesses must be at least 1, got {args.accesses}"
        )
    if args.trace is not None:
        if setting("checkpoint"):
            raise ConfigError(
                "REPRO_CHECKPOINT snapshots runner cells, and a --trace "
                "file is not one: it would run without a snapshot"
            )
        trace = load_trace(args.trace)
        # One tenant per distinct source tag in the fourth column
        # (Burst_QW sizes its write quota from it); an empty trace file
        # still runs, as one idle source.
        sources = len({row[3] for row in trace_rows(trace)}) or 1
        system = MemorySystem(_config(args, sources), args.mechanism)
        result = OoOCore(system, trace).run()
        workload, stats, mechanism = args.trace, system.stats, system.mechanism_name
    else:
        if args.mix is not None:
            workload = "+".join(n.strip() for n in args.mix.split(",") if n.strip())
        else:
            workload = args.benchmark or args.micro
        # A mix runs one core, and so one tenant, per benchmark.
        config = _config(args, workload.count("+") + 1)
        run = execute_cell(
            (workload, args.mechanism, args.accesses, args.seed, config)
        )
        if run.resumed_cycle is not None:
            print(
                f"resumed {workload}/{args.mechanism} from memory cycle "
                f"{run.resumed_cycle}",
                file=sys.stderr,
            )
        result, stats, mechanism = run.core, run.stats, run.mechanism_name
    if args.stats_out:
        with open(args.stats_out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"stats": stats.to_dict(), "result": result.to_dict()},
                sort_keys=True,
            ))
    summary = {
        "workload": workload,
        "mechanism": mechanism,
        "device": args.device,
        "mapping": args.mapping,
        "accesses": result.loads + result.stores,
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
    try:
        # --oracle wins over REPRO_ORACLE, as in repro-experiments.
        with using(Settings.from_env(oracle=True)) if args.oracle else nullcontext():
            summary = _run(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        width = max(len(k) for k in summary)
        for key, value in summary.items():
            print(f"{key.ljust(width)}  {value}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
