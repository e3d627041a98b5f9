"""§5.1 — write queue saturation rates on swim.

The paper quotes, for the swim benchmark: Intel saturates the write
queue 24% of the time, Burst 46%, Burst_RP 70%, Burst_WP 2% and
Burst_TH 9%.  The *ordering* (RP > Burst > Intel > TH > WP) is the
reproduction target; absolute numbers depend on the exact M5 workload.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.tables import format_table
from repro.experiments.common import cell, resolve

BENCHMARK = "swim"

#: mechanism -> paper-reported saturation fraction on swim.
PAPER_RATES = {
    "Intel": 0.24,
    "Burst": 0.46,
    "Burst_RP": 0.70,
    "Burst_WP": 0.02,
    "Burst_TH": 0.09,
}


def run(
    benchmark: str = BENCHMARK,
    accesses: Optional[int] = None,
    config=None,
) -> Dict[str, Dict[str, float]]:
    """Measured write-queue saturation per mechanism."""
    runs = resolve(
        {m: cell(benchmark, m, accesses, config) for m in PAPER_RATES}
    )
    return {
        mechanism: {
            "paper": paper,
            "measured": runs[mechanism][0].write_queue_saturation,
        }
        for mechanism, paper in PAPER_RATES.items()
    }


def render(result) -> str:
    """Render the result as the paper-style text table."""
    rows = [
        (mechanism, values["paper"], values["measured"])
        for mechanism, values in result.items()
    ]
    return format_table(
        ("mechanism", "paper", "measured"),
        rows,
        title=(
            f"Write queue saturation on {BENCHMARK} "
            "(ordering target: RP > Burst > Intel > TH > WP)"
        ),
    )


def main() -> str:
    """Run with defaults and return the rendered text."""
    return render(run())


__all__ = ["BENCHMARK", "PAPER_RATES", "main", "render", "run"]
