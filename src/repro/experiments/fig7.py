"""Figure 7 — average read and write latency per mechanism.

The paper's headline observations (§5.1):

* every out-of-order mechanism reduces read latency by 26-47% relative
  to BkInOrder;
* Burst_RP achieves the lowest read latency;
* RowHit achieves the lowest write latency among the reordering
  mechanisms (it treats reads and writes equally);
* Intel and Burst postpone writes, so their write latency grows; read
  preemption grows it further; write piggybacking shrinks it sharply.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.tables import format_table
from repro.experiments.common import MECHANISMS, matrix, resolve


def run(
    benchmarks=None, accesses: Optional[int] = None, config=None
) -> Dict[str, Dict[str, float]]:
    """Per-mechanism latencies averaged across the benchmarks."""
    runs = resolve(matrix(benchmarks, MECHANISMS, accesses, config))
    benchmarks_run = sorted({bench for bench, _ in runs})
    result: Dict[str, Dict[str, float]] = {}
    for mechanism in MECHANISMS:
        reads = [
            runs[(bench, mechanism)][0].mean_read_latency
            for bench in benchmarks_run
        ]
        writes = [
            runs[(bench, mechanism)][0].mean_write_latency
            for bench in benchmarks_run
        ]
        result[mechanism] = {
            "read_latency": arithmetic_mean(reads),
            "write_latency": arithmetic_mean(writes),
        }
    base_read = result["BkInOrder"]["read_latency"]
    for mechanism in MECHANISMS:
        result[mechanism]["read_reduction_pct"] = (
            (base_read - result[mechanism]["read_latency"]) / base_read * 100.0
        )
    return result


def render(result) -> str:
    """Render the result as the paper-style text table."""
    rows = [
        (
            mechanism,
            result[mechanism]["read_latency"],
            result[mechanism]["write_latency"],
            result[mechanism]["read_reduction_pct"],
        )
        for mechanism in MECHANISMS
    ]
    return format_table(
        (
            "mechanism",
            "read latency (cycles)",
            "write latency (cycles)",
            "read reduction vs BkInOrder (%)",
        ),
        rows,
        title=(
            "Figure 7: average access latency "
            "(paper: reads drop 26-47%, Burst_RP lowest)"
        ),
        float_format="{:.1f}",
    )


def main() -> str:
    """Run with defaults and return the rendered text."""
    return render(run())


__all__ = ["main", "render", "run"]
