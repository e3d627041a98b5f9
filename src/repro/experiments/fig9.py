"""Figure 9 — row hit/conflict/empty rates and SDRAM bus utilisation.

Paper observations (§5.2):

* out-of-order mechanisms raise the row hit rate; RowHit, Burst_WP and
  Burst_TH are highest because they seek row hits in the write queues
  too, while Intel and plain Burst only search the read queues;
* read preemption raises the row *empty* rate (a preempted write may
  have precharged the bank before the read takes over);
* address bus utilisation barely moves (~3% spread) while data bus
  utilisation spans 31-42%; Burst_TH is highest, lifting effective
  bandwidth from 2.0 GB/s (BkInOrder) to 2.7 GB/s (+35%).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.tables import format_table
from repro.experiments.common import MECHANISMS, matrix, resolve


def run(
    benchmarks=None, accesses: Optional[int] = None, config=None
) -> Dict[str, Dict[str, float]]:
    """Per-mechanism row-state rates and bus utilisation."""
    runs = resolve(matrix(benchmarks, MECHANISMS, accesses, config))
    benchmarks_run = sorted({bench for bench, _ in runs})
    result: Dict[str, Dict[str, float]] = {}
    for mechanism in MECHANISMS:
        cells = [runs[(bench, mechanism)][0] for bench in benchmarks_run]
        rates = [stats.row_state_rates() for stats in cells]
        result[mechanism] = {
            "row_hit": arithmetic_mean([r["hit"] for r in rates]),
            "row_conflict": arithmetic_mean([r["conflict"] for r in rates]),
            "row_empty": arithmetic_mean([r["empty"] for r in rates]),
            "addr_bus_util": arithmetic_mean(
                [s.address_bus_utilization for s in cells]
            ),
            "data_bus_util": arithmetic_mean(
                [s.data_bus_utilization for s in cells]
            ),
            "bandwidth_gbps": arithmetic_mean(
                [s.effective_bandwidth_gbps() for s in cells]
            ),
        }
    return result


def render(result) -> str:
    """Render the result as the paper-style text table."""
    rows = [
        (
            mechanism,
            values["row_hit"],
            values["row_conflict"],
            values["row_empty"],
            values["addr_bus_util"],
            values["data_bus_util"],
            values["bandwidth_gbps"],
        )
        for mechanism, values in result.items()
    ]
    return format_table(
        (
            "mechanism",
            "row hit",
            "row conflict",
            "row empty",
            "addr bus",
            "data bus",
            "GB/s",
        ),
        rows,
        title=(
            "Figure 9: row hit/conflict/empty and bus utilisation "
            "(paper: data bus 31-42%, Burst_TH highest)"
        ),
    )


def main() -> str:
    """Run with defaults and return the rendered text."""
    return render(run())


__all__ = ["main", "render", "run"]
