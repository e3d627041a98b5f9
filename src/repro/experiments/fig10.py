"""Figure 10 — execution time per benchmark, normalized to BkInOrder.

The paper's headline results (§5.3):

* RowHit cuts average execution time by 17%, Intel by 12%, Burst by
  14%;
* read preemption adds ~3% on top of Intel and Burst;
* write piggybacking adds ~5% on top of Burst (Burst_WP totals 19%);
* Burst_TH (threshold 52) is best at **21%**, beating RowHit by 6%,
  Intel by 11% and Intel_RP by 7%;
* read preemption dominates on mcf, parser, perlbmk and facerec;
  write piggybacking dominates on most others, especially gcc and
  lucas.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.metrics import arithmetic_mean, percent_reduction
from repro.analysis.tables import format_table
from repro.experiments.common import MECHANISMS, matrix, resolve
from repro.workloads.spec2000 import benchmark_names

BASELINE = "BkInOrder"


def run(
    benchmarks=None, accesses: Optional[int] = None, config=None
) -> Dict[str, object]:
    """Normalized execution time per (benchmark, mechanism) + averages."""
    benchmarks = list(benchmarks) if benchmarks else benchmark_names()
    runs = resolve(matrix(benchmarks, MECHANISMS, accesses, config))
    normalized: Dict[str, Dict[str, float]] = {}
    for bench in benchmarks:
        base_cycles = runs[(bench, BASELINE)][1].mem_cycles
        normalized[bench] = {
            mechanism: runs[(bench, mechanism)][1].mem_cycles / base_cycles
            for mechanism in MECHANISMS
        }
    average = {
        mechanism: arithmetic_mean(
            [normalized[bench][mechanism] for bench in benchmarks]
        )
        for mechanism in MECHANISMS
    }
    best = average["Burst_TH"]
    return {
        "normalized": normalized,
        "average": average,
        "reductions_pct": {
            mechanism: percent_reduction(value)
            for mechanism, value in average.items()
        },
        "burst_th_vs": {
            "RowHit": percent_reduction(best / average["RowHit"]),
            "Intel": percent_reduction(best / average["Intel"]),
            "Intel_RP": percent_reduction(best / average["Intel_RP"]),
        },
    }


def render(result) -> str:
    """Render the result as the paper-style text table."""
    normalized = result["normalized"]
    rows = [
        tuple([bench] + [normalized[bench][m] for m in MECHANISMS])
        for bench in normalized
    ]
    rows.append(
        tuple(["average"] + [result["average"][m] for m in MECHANISMS])
    )
    table = format_table(
        ("benchmark",) + MECHANISMS,
        rows,
        title=(
            "Figure 10: execution time normalized to BkInOrder "
            "(paper averages: RowHit 0.83, Intel 0.88, Burst 0.86, "
            "Burst_WP 0.81, Burst_TH 0.79)"
        ),
    )
    claims = result["burst_th_vs"]
    summary = (
        f"\nBurst_TH average reduction: "
        f"{result['reductions_pct']['Burst_TH']:.1f}% "
        f"(paper: 21%); vs RowHit {claims['RowHit']:.1f}% (paper 6%), "
        f"vs Intel {claims['Intel']:.1f}% (paper 11%), "
        f"vs Intel_RP {claims['Intel_RP']:.1f}% (paper 7%)"
    )
    return table + summary


def main() -> str:
    """Run with defaults and return the rendered text."""
    return render(run())


__all__ = ["BASELINE", "main", "render", "run"]
