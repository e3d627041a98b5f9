"""Generation sweep — the fig7/table1 matrix across device profiles.

The paper's §6 extrapolates its DDR2 findings forward: bus frequency
grows much faster than the core timings shrink, so access latency *in
bus cycles* keeps climbing and reordering gains grow with it.  This
experiment re-runs the Figure 7 latency matrix on every profile of
the generation ladder (:data:`repro.dram.timing.GENERATIONS`, now
reaching DDR5-4800 with bank groups, BL16, sub-channels and same-bank
refresh) and reports, per generation:

* the analytic Table 1 row — hit / empty / conflict latencies in
  cycles, the paper's "latencies grow" axis;
* per-mechanism read/write latencies and execution cycles, Figure 7
  style, including the BARD-style ``Burst_BPW`` extension;
* the §6 claim itself: Burst_TH's execution-time gain over BkInOrder,
  the mean of the per-benchmark gains;
* the DDR5-era headline: ``Burst_BPW``'s write-drain improvement over
  ``Burst_TH`` (mean write latency, store-stall cycles and execution
  time), which should widen down the ladder as write recovery grows.

Profiles that define per-bank refresh parameters run under ``REFpb``
so the generation is measured with its native refresh mode.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.tables import format_table
from repro.dram.timing import GENERATIONS
from repro.experiments.common import cell, resolve
from repro.experiments.runner import Cell
from repro.sim.config import baseline_config

#: Mechanisms per generation cell: the paper's baseline and best, the
#: write-sensitive Table 4 variants they bracket, and the DDR5-era
#: bank-parallel drain whose win the sweep is built to expose.
MECHANISMS = ("BkInOrder", "RowHit", "Burst_TH", "Burst_BPW")

#: Benchmarks averaged per cell — the write-queue saturating subset
#: (the regime Burst_BPW changes) plus the read-dominated ``mcf``
#: control, which must come out byte-identical to Burst_TH.
BENCHMARKS = ("swim", "gcc", "lucas", "mcf")

#: Default accesses per run before REPRO_SCALE (the ladder crosses
#: 7 generations x 4 mechanisms x 4 benchmarks).
ACCESSES = 3000


def generation_config(timing, base=None):
    """The baseline machine on one generation profile.

    Per-bank refresh profiles (DDR5's same-bank refresh) run under
    ``REFpb``; everything older keeps the all-bank ``REFab`` baseline.
    """
    base = base if base is not None else baseline_config()
    policy = "REFpb" if timing.tRFCpb else "REFab"
    return replace(base, timing=timing, refresh_policy=policy)


def cells(
    benchmarks: Sequence[str],
    mechanisms: Sequence[str],
    accesses: Optional[int] = None,
    config=None,
    seed: Optional[int] = None,
    generations=GENERATIONS,
) -> Dict[Tuple[str, str, str], Cell]:
    """The ``{(generation, benchmark, mechanism): cell}`` ladder.

    Generation-major, then benchmark-major within a generation; the
    job service's ``generations`` matrix is this list.
    """
    n = ACCESSES if accesses is None else accesses
    return {
        (timing.name, bench, mechanism): cell(
            bench, mechanism, n, generation_config(timing, config), seed
        )
        for timing in generations
        for bench in benchmarks
        for mechanism in mechanisms
    }


def _cut(before: float, after: float) -> Optional[float]:
    """How much lower ``after`` is than ``before``, in percent; ``None``
    when ``before`` is 0 (a write-free cell has no write latency)."""
    return (before - after) / before * 100.0 if before else None


def run(
    benchmarks: Optional[Sequence[str]] = None,
    generations=GENERATIONS,
    mechanisms: Sequence[str] = MECHANISMS,
    accesses: Optional[int] = None,
    config=None,
) -> Dict[str, Dict[str, object]]:
    """The generation x mechanism x benchmark sweep."""
    benchmarks = list(benchmarks) if benchmarks else list(BENCHMARKS)
    mechanisms = list(mechanisms)
    resolved = resolve(cells(
        benchmarks, mechanisms, accesses, config, generations=generations
    ))
    result: Dict[str, Dict[str, object]] = {}
    for timing in generations:
        per_mechanism: Dict[str, Dict[str, float]] = {}
        cycles = {}
        for mechanism in mechanisms:
            runs = [
                resolved[(timing.name, bench, mechanism)]
                for bench in benchmarks
            ]
            cycles[mechanism] = [core.mem_cycles for _, core in runs]
            per_mechanism[mechanism] = {
                "read_latency": arithmetic_mean(
                    [s.mean_read_latency for s, _ in runs]
                ),
                "write_latency": arithmetic_mean(
                    [s.mean_write_latency for s, _ in runs]
                ),
                "mem_cycles": arithmetic_mean(
                    [float(c) for c in cycles[mechanism]]
                ),
                "store_stall_cycles": arithmetic_mean(
                    [float(core.store_stall_cycles) for _, core in runs]
                ),
            }
        entry: Dict[str, object] = {
            "row_hit": timing.tCL,
            "row_empty": timing.tRCD + timing.tCL,
            "row_conflict": timing.tRP + timing.tRCD + timing.tCL,
            "mechanisms": per_mechanism,
        }
        if "BkInOrder" in per_mechanism and "Burst_TH" in per_mechanism:
            entry["burst_th_gain_pct"] = arithmetic_mean([
                (1.0 - burst / inorder) * 100.0
                for inorder, burst in zip(
                    cycles["BkInOrder"], cycles["Burst_TH"]
                )
            ])
        if "Burst_TH" in per_mechanism and "Burst_BPW" in per_mechanism:
            th = per_mechanism["Burst_TH"]
            bpw = per_mechanism["Burst_BPW"]
            entry["bpw_write_drain"] = {
                f"{name}_reduction_pct": _cut(th[key], bpw[key])
                for name, key in (
                    ("write_latency", "write_latency"),
                    ("store_stall", "store_stall_cycles"),
                    ("execution", "mem_cycles"),
                )
            }
        result[timing.name] = entry
    return result


def render(result) -> str:
    """Render the sweep as paper-style text tables: the per-mechanism
    matrix, the Burst_TH gain per generation and the Burst_BPW drain
    win (a cut whose Burst_TH base is 0 reads ``n/a``)."""
    rows = []
    for generation, entry in result.items():
        for mechanism, values in entry["mechanisms"].items():
            rows.append(
                (
                    generation,
                    entry["row_conflict"],
                    mechanism,
                    values["read_latency"],
                    values["write_latency"],
                    values["mem_cycles"],
                )
            )
    table = format_table(
        (
            "generation",
            "conflict (cycles)",
            "mechanism",
            "read latency",
            "write latency",
            "execution (cycles)",
        ),
        rows,
        title=(
            "Generation sweep: Table 1 latencies and the Figure 7 "
            "matrix per device profile (§6: gains grow with the "
            "ladder; Burst_BPW drains DDR5 write queues)"
        ),
        float_format="{:.1f}",
    )
    gains = [
        (generation, entry["row_conflict"], entry["burst_th_gain_pct"])
        for generation, entry in result.items()
        if "burst_th_gain_pct" in entry
    ]
    if gains:
        table += "\n\n" + format_table(
            ("generation", "conflict (cycles)",
             "Burst_TH gain over BkInOrder (%)"),
            gains,
            title=(
                "§6: Burst_TH execution-time gain over BkInOrder "
                "(mean of per-benchmark gains)"
            ),
            float_format="{:.1f}",
        )
    drains = [
        (generation,) + tuple(
            "n/a" if value is None else value
            for value in entry["bpw_write_drain"].values()
        )
        for generation, entry in result.items()
        if "bpw_write_drain" in entry
    ]
    if drains:
        table += "\n\n" + format_table(
            (
                "generation",
                "write latency cut (%)",
                "store stalls cut (%)",
                "execution cut (%)",
            ),
            drains,
            title="Burst_BPW write-drain win over Burst_TH",
            float_format="{:.1f}",
        )
    return table


def main() -> str:
    """Run with defaults and return the rendered text."""
    return render(run())


__all__ = [
    "ACCESSES",
    "BENCHMARKS",
    "MECHANISMS",
    "cells",
    "generation_config",
    "main",
    "render",
    "run",
]
