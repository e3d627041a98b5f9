"""Experiment harness: one module per table/figure of the paper.

Each experiment module exposes a ``run(...)`` function returning a
structured result plus a ``render(result)`` function producing the
plain-text table/series the paper reports.  ``repro-experiments``
(see :mod:`repro.experiments.cli`) runs them from the command line,
and the ``benchmarks/`` suite wraps each one with pytest-benchmark.

========== ==========================================================
table1     SDRAM access latencies under OP/CPA (paper Table 1)
fig1       in-order vs out-of-order example, 28 vs 16 cycles (Fig. 1)
fig7       average read/write latency per mechanism (Fig. 7)
fig8       outstanding access distributions, swim (Fig. 8)
fig9       row hit/conflict/empty and bus utilisation (Fig. 9)
fig10      normalized execution time per benchmark (Fig. 10)
fig11      outstanding accesses vs threshold, swim (Fig. 11)
fig12      latency & execution time vs threshold (Fig. 12)
saturation write queue saturation rates, swim (§5.1)
refresh_pressure density x refresh policy x mechanism (HPCA 2014)
fleet      multi-tenant adversarial matrix, QoS vs plain Burst_TH
generations fig7/table1 matrix per device profile, Burst_BPW drain (§6)
========== ==========================================================
"""

from repro.experiments import (  # noqa: F401  (registry import)
    fig1,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fleet,
    generations,
    refresh_pressure,
    saturation,
    table1,
)

EXPERIMENTS = {
    "table1": table1,
    "fig1": fig1,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "refresh_pressure": refresh_pressure,
    "saturation": saturation,
    "fleet": fleet,
    "generations": generations,
}

__all__ = ["EXPERIMENTS"]
