"""Figure 8 — distribution of outstanding memory accesses (swim).

"The distribution of outstanding memory accesses ... is defined as the
percentage of time that a given number of accesses are outstanding in
the main memory" (§5.1).  The paper plots it for swim under six
mechanisms, observing:

* RowHit slightly increases outstanding accesses vs BkInOrder;
* Intel and Burst accumulate large numbers of outstanding writes
  (write postponement), saturating the write queue 24%/46% of time;
* Burst_RP pushes saturation to 70%, Burst_WP down to 2%, Burst_TH to
  9%.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.tables import format_series
from repro.experiments.common import cell, resolve

#: The mechanisms plotted in the paper's Figure 8.
FIG8_MECHANISMS = (
    "BkInOrder",
    "RowHit",
    "Intel",
    "Burst_RP",
    "Burst_WP",
    "Burst_TH",
)

BENCHMARK = "swim"


def run(
    benchmark: str = BENCHMARK,
    accesses: Optional[int] = None,
    config=None,
) -> Dict[str, Dict[str, List[Tuple[int, float]]]]:
    """Time-weighted outstanding-access distributions per mechanism."""
    runs = resolve(
        {m: cell(benchmark, m, accesses, config) for m in FIG8_MECHANISMS}
    )
    result = {}
    for mechanism, (stats, _) in runs.items():
        result[mechanism] = {
            "reads": list(stats.outstanding_reads.series()),
            "writes": list(stats.outstanding_writes.series()),
            "mean_reads": stats.outstanding_reads.mean(),
            "mean_writes": stats.outstanding_writes.mean(),
            "write_queue_saturation": stats.write_queue_saturation,
        }
    return result


def _bucket(series: List[Tuple[int, float]], width: int) -> List[Tuple[str, float]]:
    """Coarsen a distribution into fixed-width buckets for printing."""
    buckets: Dict[int, float] = {}
    for key, fraction in series:
        buckets[key // width] = buckets.get(key // width, 0.0) + fraction
    return [
        (f"{b * width}-{(b + 1) * width - 1}", buckets[b])
        for b in sorted(buckets)
    ]


def render(result) -> str:
    """Render the result as the paper-style text table."""
    parts = [
        "Figure 8: distribution of outstanding accesses, "
        f"benchmark {BENCHMARK}"
    ]
    for mechanism, data in result.items():
        parts.append(
            f"\n{mechanism}: mean outstanding reads "
            f"{data['mean_reads']:.1f}, writes {data['mean_writes']:.1f}, "
            f"write queue saturated {data['write_queue_saturation']:.1%}"
        )
        parts.append(format_series("outstanding reads", _bucket(data["reads"], 4)))
        parts.append(format_series("outstanding writes", _bucket(data["writes"], 8)))
    return "\n".join(parts)


def main() -> str:
    """Run with defaults and return the rendered text."""
    return render(run())


__all__ = ["BENCHMARK", "FIG8_MECHANISMS", "main", "render", "run"]
