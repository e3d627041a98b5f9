"""Refresh pressure — execution time vs density and refresh policy.

DRAM refresh overhead grows with device density: tRFC rises from
~140 cycles at 8 Gb to ~350 at 32 Gb while tREFI stays fixed, so the
fraction of time a rank is unavailable climbs steeply (Chang et al.,
HPCA 2014, the source of the DARP/SARP mechanisms modelled in
:mod:`repro.dram.refresh`).  This experiment sweeps that ladder:

* **densities** — tRFC for 8/16/32 Gb devices, with the per-bank
  tRFCpb at the JEDEC-typical ~0.4 x tRFC;
* **refresh policies** — REFab (all-bank baseline), REFpb (per-bank
  round-robin), DARP (out-of-order + pull-in), SARP (subarray-level
  access-refresh parallelism);
* **mechanisms** — Burst_TH (the paper's best), Intel (its baseline)
  and FCFS (fully serialised), to show the policies help regardless
  of the access scheduler.

For each (density, mechanism) cell the execution time is normalized
to the REFab baseline of that same cell, so the table reads directly
as "cycles saved by smarter refresh scheduling".
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.tables import format_table
from repro.experiments.common import cell, resolve
from repro.sim.config import REFRESH_POLICIES, baseline_config

#: Density ladder: (label, tRFC in cycles).  The real 8/16/32 Gb tRFC
#: values are paired with a compressed tREFI so a few thousand
#: simulated accesses span many refresh periods — the tRFC/tREFI duty
#: cycle (the quantity that grows with density and that the per-bank
#: policies attack) is what the ladder exercises, not wall-clock tREFI.
TREFI = 780

DENSITIES = (
    ("8Gb", 140),
    ("16Gb", 208),
    ("32Gb", 350),
)

#: Schedulers the sweep crosses the refresh policies with.
MECHANISMS = ("Burst_TH", "Intel", "FCFS")

#: Benchmarks averaged per cell (a memory-hungry subset; the full
#: 4 x 3 x 3-density matrix makes every extra benchmark expensive).
BENCHMARKS = ("swim", "art", "mcf")

#: Default accesses per run before REPRO_SCALE (the matrix has
#: 36 cells, so this sits below the figure experiments' 6000).
ACCESSES = 2000


def _density_config(base, trfc: int):
    """The baseline config at one density step of the ladder."""
    timing = replace(
        base.timing,
        name=f"{base.timing.name}-tRFC{trfc}",
        tREFI=TREFI,
        tRFC=trfc,
        tRFCpb=max(1, (trfc * 2) // 5),
    )
    return replace(base, timing=timing)


def run(
    benchmarks: Optional[Sequence[str]] = None,
    densities=DENSITIES,
    policies: Sequence[str] = REFRESH_POLICIES,
    mechanisms: Sequence[str] = MECHANISMS,
    accesses: Optional[int] = None,
    config=None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """The density x policy x mechanism sweep, normalized to REFab."""
    benchmarks = list(benchmarks) if benchmarks else list(BENCHMARKS)
    policies = list(policies)
    if "REFab" not in policies:
        # Everything is normalized to REFab; it must be swept.
        policies.insert(0, "REFab")
    base = config if config is not None else baseline_config()
    n = ACCESSES if accesses is None else accesses
    resolved = resolve({
        (bench, label, policy, mechanism): cell(
            bench, mechanism, n,
            replace(_density_config(base, trfc), refresh_policy=policy),
        )
        for bench in benchmarks
        for label, trfc in densities
        for policy in policies
        for mechanism in mechanisms
    })
    result: Dict[str, Dict[str, Dict[str, float]]] = {}
    for label, _ in densities:
        per_density: Dict[str, Dict[str, float]] = {}
        for policy in policies:
            for mechanism in mechanisms:
                runs = [
                    resolved[(bench, label, policy, mechanism)]
                    for bench in benchmarks
                ]
                refab = [
                    resolved[(bench, label, "REFab", mechanism)]
                    for bench in benchmarks
                ]
                per_density[f"{policy}/{mechanism}"] = {
                    "read_latency": arithmetic_mean(
                        [s.mean_read_latency for s, _ in runs]
                    ),
                    "refreshes": arithmetic_mean(
                        [float(s.refreshes) for s, _ in runs]
                    ),
                    "execution_vs_REFab": arithmetic_mean(
                        [
                            core.mem_cycles / base.mem_cycles
                            for (_, core), (_, base) in zip(runs, refab)
                        ]
                    ),
                }
        result[label] = per_density
    return result


def render(result) -> str:
    """Render the sweep as one paper-style text table."""
    rows = [
        (
            density,
            cell,
            values["read_latency"],
            values["refreshes"],
            values["execution_vs_REFab"],
        )
        for density, per_density in result.items()
        for cell, values in per_density.items()
    ]
    return format_table(
        (
            "density",
            "policy/mechanism",
            "read latency",
            "refreshes",
            "execution (norm. to REFab)",
        ),
        rows,
        title=(
            "Refresh pressure: density ladder x refresh policy x "
            "mechanism (HPCA 2014: per-bank policies claw back the "
            "growing tRFC overhead)"
        ),
    )


def main() -> str:
    """Run with defaults and return the rendered text."""
    return render(run())


__all__ = [
    "ACCESSES",
    "BENCHMARKS",
    "DENSITIES",
    "MECHANISMS",
    "main",
    "render",
    "run",
]
