"""Fleet mode — adversarial multi-tenant scenario matrix.

Runs every fleet scenario (:data:`repro.workloads.fleet.SCENARIOS`)
against plain ``Burst_TH`` and the ``Burst_QW`` QoS variant, open loop
through :class:`~repro.sim.engine.OpenLoopDriver` (one request lane per
tenant), and reports weighted speedup, max slowdown (the victim's
view) and Jain over per-tenant speedups (:mod:`repro.analysis.fairness`)
against *solo-run* baselines: each tenant replayed alone on the
identical machine and mechanism.

Every drain is a runner cell (:func:`cells`): the shared drain is
named by its scenario (``hog_vs_reader``), a solo drain by its tenant
(``reader@1``, :func:`repro.workloads.make_requests`).  :func:`run`
resolves them all with one ``resolve`` call, so they are cached and
run under ``--jobs`` like any other cell, and a tenant two scenarios
share (``reader@1``) is drained once per mechanism.  ``REPRO_SCALE``
scales the per-tenant access counts and ``REPRO_ORACLE=1`` attaches
the protocol oracle to every run.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Hashable, Optional, Sequence

from repro.analysis.fairness import (
    max_slowdown,
    per_source_read_latency,
    speedup_jain,
    weighted_speedup,
)
from repro.analysis.tables import format_table
from repro.errors import ConfigError
from repro.experiments.common import cell, resolve
from repro.experiments.runner import Cell
from repro.sim.config import baseline_config
from repro.workloads.fleet import SCENARIOS, scenario_profiles

#: Mechanisms the matrix crosses the scenarios with: the paper's best
#: single-stream scheduler and the QoS variant built on it.
MECHANISMS = ("Burst_TH", "Burst_QW")

#: Default accesses per tenant before REPRO_SCALE.
ACCESSES = 2000


def cells(
    scenarios: Optional[Sequence[str]] = None,
    mechanisms: Sequence[str] = MECHANISMS,
    accesses: Optional[int] = None,
    config=None,
    seed: Optional[int] = None,
) -> Dict[Hashable, Cell]:
    """Every drain of the matrix, keyed ``(scenario, mechanism,
    source)``: source ``None`` is the shared drain, any other the solo
    drain of that tenant, on the baseline machine (or ``config``) with
    one source per tenant."""
    base = config if config is not None else baseline_config()
    n = ACCESSES if accesses is None else accesses
    drains: Dict[Hashable, Cell] = {}
    for scenario in scenarios or SCENARIOS:
        profiles = scenario_profiles(scenario)
        cfg = replace(base, sources=len(profiles))
        for mechanism in mechanisms:
            drains[scenario, mechanism, None] = cell(
                scenario, mechanism, n, cfg, seed
            )
            for source, profile in enumerate(profiles):
                drains[scenario, mechanism, source] = cell(
                    f"{profile}@{source}", mechanism, n, cfg, seed
                )
    return drains


def _score(scenario: str, mechanism: str, got) -> Dict[str, object]:
    """One (scenario, mechanism) result from its resolved drains."""
    stats = got[scenario, mechanism, None][0]
    shared = per_source_read_latency(stats)
    solo: Dict[int, float] = {}
    for source, profile in enumerate(scenario_profiles(scenario)):
        baseline = per_source_read_latency(got[scenario, mechanism, source][0])
        if source not in baseline:
            raise ConfigError(
                f"tenant {source} ({profile}) completed no reads solo"
            )
        solo[source] = baseline[source]
    return {
        "cycles": stats.cycles,
        "per_source_read_latency": {str(s): v for s, v in shared.items()},
        "solo_read_latency": {str(s): v for s, v in solo.items()},
        "weighted_speedup": weighted_speedup(solo, shared),
        "max_slowdown": max_slowdown(solo, shared),
        # Jain over per-tenant speedups (solo / shared latency): in a
        # drain run every tenant's raw service rate is count/cycles,
        # flat by construction, and raw 1/latency ignores how fast
        # each tenant runs alone.
        "jain_index": speedup_jain(solo, shared),
    }


def run(
    scenarios: Optional[Sequence[str]] = None,
    mechanisms: Sequence[str] = MECHANISMS,
    accesses: Optional[int] = None,
    config=None,
    seed: Optional[int] = None,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """The full scenario x mechanism matrix, from one resolve."""
    names = list(scenarios) if scenarios else list(SCENARIOS)
    got = resolve(cells(names, mechanisms, accesses, config, seed))
    return {
        scenario: {
            mechanism: _score(scenario, mechanism, got)
            for mechanism in mechanisms
        }
        for scenario in names
    }


def render(result) -> str:
    """Render the matrix as one paper-style text table."""
    rows = [
        (
            scenario,
            mechanism,
            score["weighted_speedup"],
            score["max_slowdown"],
            score["jain_index"],
            score["cycles"],
        )
        for scenario, per_mechanism in result.items()
        for mechanism, score in per_mechanism.items()
    ]
    return format_table(
        (
            "scenario",
            "mechanism",
            "weighted speedup",
            "max slowdown",
            "jain (solo/shared)",
            "cycles",
        ),
        rows,
        title=(
            "Fleet mode: adversarial tenant matrix "
            "(QoS variant vs plain Burst_TH)"
        ),
    )


def main() -> str:
    """Run with defaults and return the rendered text."""
    return render(run())


__all__ = ["ACCESSES", "MECHANISMS", "cells", "main", "render", "run"]
