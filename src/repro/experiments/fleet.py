"""Fleet mode — adversarial multi-tenant scenario matrix.

Runs every fleet scenario (:data:`repro.workloads.fleet.SCENARIOS`)
against plain ``Burst_TH`` and the ``Burst_QW`` QoS variant, open loop
through :class:`~repro.sim.engine.OpenLoopDriver` (one request lane per
tenant), and reports the standard multiprogram fairness metrics against
*solo-run* baselines (each tenant replayed alone on the identical
machine and mechanism):

* weighted speedup — 1.0 means sharing cost nothing;
* max slowdown — the victim tenant's view, the number the QoS
  variant exists to pull down on the aggressor scenarios;
* Jain index over per-tenant speedups (solo / shared latency) — 1.0
  means sharing slowed every tenant equally, 1/K one tenant bearing
  all of the slowdown.

Unlike the figure experiments this one drives the open-loop fleet
driver directly (the persistent cell cache is shaped around
closed-loop single-stream runs), so it recomputes on every call;
``REPRO_SCALE`` scales the per-tenant access counts as usual and
``REPRO_ORACLE=1`` attaches the protocol oracle to every run.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence

from repro.analysis.fairness import (
    max_slowdown,
    per_source_read_latency,
    per_source_service_rate,
    speedup_jain,
    weighted_speedup,
)
from repro.analysis.tables import format_table
from repro.controller.system import MemorySystem
from repro.errors import ConfigError
from repro.experiments.common import default_seed, scaled_accesses
from repro.sim.config import baseline_config
from repro.sim.engine import OpenLoopDriver
from repro.workloads.fleet import (
    SCENARIOS,
    make_fleet_requests,
    scenario_profiles,
    tenant_requests,
)

#: Mechanisms the matrix crosses the scenarios with: the paper's best
#: single-stream scheduler and the QoS variant built on it.
MECHANISMS = ("Burst_TH", "Burst_QW")

#: Default accesses per tenant before REPRO_SCALE.
ACCESSES = 2000


def _fleet_config(scenario: str, config=None):
    """The machine for ``scenario``: baseline + matching tenant count."""
    base = config if config is not None else baseline_config()
    return replace(base, sources=len(scenario_profiles(scenario)))


def _drain(config, mechanism: str, requests):
    """One open-loop fleet run to drain; returns (cycles, stats)."""
    system = MemorySystem(config, mechanism)
    driver = OpenLoopDriver(system, requests)
    cycles = driver.run()
    return cycles, system.stats


def run_scenario(
    scenario: str,
    mechanism: str,
    accesses: Optional[int] = None,
    config=None,
    seed: Optional[int] = None,
) -> Dict[str, object]:
    """One (scenario, mechanism) cell with its solo baselines."""
    cfg = _fleet_config(scenario, config)
    n = scaled_accesses(ACCESSES if accesses is None else accesses)
    seed = default_seed() if seed is None else seed
    cycles, stats = _drain(
        cfg, mechanism, make_fleet_requests(scenario, n, cfg, seed)
    )
    shared = per_source_read_latency(stats)
    solo: Dict[int, float] = {}
    for source, profile in enumerate(scenario_profiles(scenario)):
        _, solo_stats = _drain(
            cfg, mechanism, tenant_requests(profile, source, n, cfg, seed)
        )
        baseline = per_source_read_latency(solo_stats)
        if source not in baseline:
            raise ConfigError(
                f"tenant {source} ({profile}) completed no reads solo"
            )
        solo[source] = baseline[source]
    return {
        "cycles": cycles,
        "per_source_read_latency": {str(s): v for s, v in shared.items()},
        "solo_read_latency": {str(s): v for s, v in solo.items()},
        "per_source_service_rate": {
            str(s): v
            for s, v in per_source_service_rate(stats, cycles).items()
        },
        "weighted_speedup": weighted_speedup(solo, shared),
        "max_slowdown": max_slowdown(solo, shared),
        # Jain over per-tenant speedups (solo / shared latency): in a
        # drain run every tenant's raw service rate is count/cycles,
        # flat by construction, and raw 1/latency ignores how fast
        # each tenant runs alone.
        "jain_index": speedup_jain(solo, shared),
        "per_source_row_hit_rate": {
            str(s): stat.row_hit_rate
            for s, stat in sorted(stats.per_source.items())
        },
    }


def run(
    scenarios: Optional[Sequence[str]] = None,
    mechanisms: Sequence[str] = MECHANISMS,
    accesses: Optional[int] = None,
    config=None,
    seed: Optional[int] = None,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """The full scenario x mechanism matrix."""
    names = list(scenarios) if scenarios else list(SCENARIOS)
    return {
        scenario: {
            mechanism: run_scenario(
                scenario, mechanism, accesses, config, seed
            )
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
            cell["weighted_speedup"],
            cell["max_slowdown"],
            cell["jain_index"],
            cell["cycles"],
        )
        for scenario, per_mechanism in result.items()
        for mechanism, cell in per_mechanism.items()
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


__all__ = ["ACCESSES", "MECHANISMS", "main", "render", "run",
           "run_scenario"]
