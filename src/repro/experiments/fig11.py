"""Figure 11 — outstanding accesses for swim under various thresholds.

The paper sweeps the Burst_TH threshold over {WP(=TH0), 8, 16, ...,
56, RP(=TH64)} and plots the outstanding read/write distributions for
swim, observing (§5.4):

* Burst_RP has the fewest outstanding reads but slightly *higher* read
  latency — depleting the read queue removes row-hit opportunities;
* the peak number of outstanding writes rises with the threshold;
* write-queue saturation stays below 7% for thresholds < 48, reaches
  14% at 56 and jumps to 70% at 64 (Burst_RP).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.tables import format_table
from repro.experiments.common import cell, resolve

BENCHMARK = "swim"

#: Paper Figure 11 threshold sweep; 0 is Burst_WP, 64 is Burst_RP.
THRESHOLDS = (0, 8, 16, 24, 32, 40, 48, 52, 56, 64)


def label(threshold: int, write_queue_size: int = 64) -> str:
    """Human label for a threshold (WP / THn / RP, §5.4)."""
    if threshold == 0:
        return "WP"
    if threshold >= write_queue_size:
        return "RP"
    return f"TH{threshold}"


def run(
    benchmark: str = BENCHMARK,
    thresholds=THRESHOLDS,
    accesses: Optional[int] = None,
    config=None,
) -> Dict[str, Dict[str, object]]:
    """Outstanding-access distributions per threshold."""
    runs = resolve({
        threshold: cell(
            benchmark, "Burst_TH", accesses, config, threshold=threshold
        )
        for threshold in thresholds
    })
    result = {}
    for threshold, (stats, _) in runs.items():
        result[label(threshold)] = {
            "threshold": threshold,
            "reads": list(stats.outstanding_reads.series()),
            "writes": list(stats.outstanding_writes.series()),
            "mean_reads": stats.outstanding_reads.mean(),
            "mean_writes": stats.outstanding_writes.mean(),
            "peak_writes": max(
                (k for k, _ in stats.outstanding_writes.series()), default=0
            ),
            "write_queue_saturation": stats.write_queue_saturation,
        }
    return result


def render(result) -> str:
    """Render the result as the paper-style text table."""
    rows: List[Tuple[object, ...]] = [
        (
            name,
            data["mean_reads"],
            data["mean_writes"],
            data["peak_writes"],
            data["write_queue_saturation"],
        )
        for name, data in result.items()
    ]
    return format_table(
        (
            "variant",
            "mean reads",
            "mean writes",
            "peak writes",
            "saturation",
        ),
        rows,
        title=(
            f"Figure 11: outstanding accesses for {BENCHMARK} vs "
            "threshold (paper: peak writes grow with threshold; "
            "saturation <7% below TH48, 14% at TH56, 70% at RP)"
        ),
    )


def main() -> str:
    """Run with defaults and return the rendered text."""
    return render(run())


__all__ = ["BENCHMARK", "THRESHOLDS", "label", "main", "render", "run"]
