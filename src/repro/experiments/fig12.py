"""Figure 12 — latency and execution time under various thresholds.

The paper sweeps the static threshold and reports, averaged over the
benchmarks and normalized to plain Burst (§5.4):

* read latency first falls as the threshold grows (more reads preempt
  writes), then rises past ~40 as write-queue saturation stalls the
  pipeline;
* write latency grows monotonically with the threshold;
* execution time is minimised at threshold 52.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.tables import format_table
from repro.experiments.common import cell, resolve
from repro.experiments.fig11 import label
from repro.workloads.spec2000 import benchmark_names

#: Figure 12 x-axis: Burst, WP(=TH0), TH8..TH60, RP(=TH64).
SWEEP = ("Burst", 0, 8, 16, 24, 32, 40, 48, 52, 56, 60, 64)


def run(
    benchmarks: Optional[Sequence[str]] = None,
    sweep=SWEEP,
    accesses: Optional[int] = None,
    config=None,
) -> Dict[str, Dict[str, float]]:
    """Latency and execution time across the threshold sweep."""
    benchmarks = list(benchmarks) if benchmarks else benchmark_names()
    sweep = list(sweep)
    if "Burst" not in sweep:
        # Everything is normalized to plain Burst; it must be swept.
        sweep.insert(0, "Burst")
    resolved = resolve({
        (bench, point): (
            cell(bench, "Burst", accesses, config)
            if point == "Burst"
            else cell(bench, "Burst_TH", accesses, config, threshold=point)
        )
        for bench in benchmarks
        for point in sweep
    })
    base_cycles = {
        bench: resolved[(bench, "Burst")][1].mem_cycles for bench in benchmarks
    }
    result: Dict[str, Dict[str, float]] = {}
    for point in sweep:
        name = "Burst" if point == "Burst" else label(point)
        runs = [resolved[(bench, point)] for bench in benchmarks]
        result[name] = {
            "read_latency": arithmetic_mean(
                [stats.mean_read_latency for stats, _ in runs]
            ),
            "write_latency": arithmetic_mean(
                [stats.mean_write_latency for stats, _ in runs]
            ),
            "execution_vs_burst": arithmetic_mean(
                [
                    core.mem_cycles / base_cycles[bench]
                    for bench, (_, core) in zip(benchmarks, runs)
                ]
            ),
        }
    best = min(
        (name for name in result if name != "Burst"),
        key=lambda name: result[name]["execution_vs_burst"],
    )
    result["best"] = {"variant": best}  # type: ignore[assignment]
    return result


def render(result) -> str:
    """Render the result as the paper-style text table."""
    rows = [
        (
            name,
            values["read_latency"],
            values["write_latency"],
            values["execution_vs_burst"],
        )
        for name, values in result.items()
        if name != "best"
    ]
    table = format_table(
        (
            "variant",
            "read latency",
            "write latency",
            "execution (norm. to Burst)",
        ),
        rows,
        title=(
            "Figure 12: threshold sweep (paper: read latency dips then "
            "rises past TH40; write latency rises; TH52 is best)"
        ),
    )
    return table + f"\nbest variant: {result['best']['variant']} (paper: TH52)"


def main() -> str:
    """Run with defaults and return the rendered text."""
    return render(run())


__all__ = ["SWEEP", "main", "render", "run"]
