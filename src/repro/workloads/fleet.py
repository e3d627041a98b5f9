"""Multi-tenant fleet workloads: tenant profiles and adversarial scenarios.

Fleet mode attaches K independent request streams (tenants) to one
memory system.  Each tenant replays a synthetic miss stream
(:mod:`repro.workloads.synthetic`) into a private slice of the
physical address space — ``capacity_bytes // sources``, the fleet
analogue of the 1 GB per-core slices of :mod:`repro.workloads.mixes` —
so tenants collide on banks and buses but never on rows they share.

The scenario matrix pairs profiles adversarially:

* ``hog_vs_reader`` — a row-buffer hog streaming near-perfect row hits
  (huge bursts the arbiter loves) against a latency-sensitive sparse
  random reader;
* ``flooder_vs_reader`` — a write flooder that saturates the shared
  write queue (pushing occupancy over the Burst_TH threshold, turning
  every bank to write piggybacking) against the same reader;
* ``symmetric2`` / ``symmetric4`` — K identical moderate tenants, the
  control cell: every fairness metric should come out flat.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import ConfigError
from repro.workloads.synthetic import LINE_BYTES, WorkloadSpec, generate_trace

#: Memory-bus cycles per instruction of trace gap (4 GHz 8-wide core
#: at IPC ~1 retires ~10 instructions per 400 MHz memory cycle).
INSTR_TO_MEM_CYCLES = 0.1

#: Tenant behaviour profiles for the adversarial matrix.
TENANT_PROFILES: Dict[str, WorkloadSpec] = {
    # Row-buffer hog: dense sequential sweeps with ~97% row locality;
    # the eviction echo replays the sweep as row-hit writebacks, the
    # piggyback fodder that keeps every open row busy with its data.
    "hog": WorkloadSpec(
        name="fleet_hog",
        mean_gap=2.0,
        write_frac=0.3,
        streams=4,
        stream_frac=0.97,
        footprint_mb=16,
        eviction_lag=64,
        burstiness=0.95,
    ),
    # Write flooder: majority writes with enough locality that
    # piggybacking keeps draining them into every open row.
    "flooder": WorkloadSpec(
        name="fleet_flooder",
        mean_gap=2.0,
        write_frac=0.55,
        streams=2,
        stream_frac=0.7,
        footprint_mb=16,
        eviction_lag=32,
        burstiness=0.9,
    ),
    # Latency-sensitive reader: sparse, random, read-only — tiny
    # bursts that queue behind whatever the aggressor builds.
    "reader": WorkloadSpec(
        name="fleet_reader",
        mean_gap=25.0,
        write_frac=0.0,
        streams=0,
        stream_frac=0.0,
        footprint_mb=16,
        burstiness=0.3,
    ),
    # Moderate mixed tenant for the symmetric control scenarios.
    "stream": WorkloadSpec(
        name="fleet_stream",
        mean_gap=8.0,
        write_frac=0.25,
        streams=2,
        stream_frac=0.7,
        footprint_mb=16,
        eviction_lag=64,
        burstiness=0.7,
    ),
}

#: Scenario name -> one profile per tenant (index = source id).
SCENARIOS: Dict[str, Tuple[str, ...]] = {
    "hog_vs_reader": ("hog", "reader"),
    "flooder_vs_reader": ("flooder", "reader"),
    "symmetric2": ("stream", "stream"),
    "symmetric4": ("stream", "stream", "stream", "stream"),
}

#: (arrival_cycle, AccessType, address, source) — the 4-field form of
#: :data:`repro.sim.engine.Request`.
FleetRequestList = List[Tuple[int, object, int, int]]


def tenant_requests(
    profile: str, source: int, accesses: int, config, seed: int = 1
) -> FleetRequestList:
    """One tenant's timestamped requests inside its address slice.

    Deterministic for ``(profile, source, accesses, config, seed)``;
    the per-source seed offset keeps symmetric tenants' streams
    independent rather than bank-synchronized clones.
    """
    try:
        spec = TENANT_PROFILES[profile]
    except KeyError:
        raise ConfigError(
            f"unknown tenant profile {profile!r}; "
            f"available: {sorted(TENANT_PROFILES)}"
        ) from None
    if not 0 <= source < config.sources:
        raise ConfigError(
            f"tenant source {source} is outside config.sources == "
            f"{config.sources}"
        )
    slice_lines = config.capacity_bytes // config.sources // LINE_BYTES
    if slice_lines <= 0:
        raise ConfigError("address slice too small for one cache line")
    base = source * slice_lines * LINE_BYTES
    requests: FleetRequestList = []
    clock = 0.0
    trace = generate_trace(spec, accesses, seed + 7919 * source)
    for gap, op, address, _ in trace.rows():
        clock += gap * INSTR_TO_MEM_CYCLES
        line = (address // LINE_BYTES) % slice_lines
        requests.append((int(clock), op, base + line * LINE_BYTES, source))
    return requests


def scenario_profiles(scenario: str) -> Tuple[str, ...]:
    """The per-tenant profile tuple of ``scenario``."""
    try:
        return SCENARIOS[scenario]
    except KeyError:
        raise ConfigError(
            f"unknown fleet scenario {scenario!r}; "
            f"available: {sorted(SCENARIOS)}"
        ) from None


def make_fleet_requests(
    scenario: str, accesses_per_source: int, config, seed: int = 1
) -> FleetRequestList:
    """All tenants' requests for ``scenario`` (driver sorts per lane).

    ``config.sources`` must match the scenario's tenant count — the
    address slicing and the QoS quotas both key on it.
    """
    profiles = scenario_profiles(scenario)
    if config.sources != len(profiles):
        raise ConfigError(
            f"scenario {scenario!r} has {len(profiles)} tenants but "
            f"config.sources == {config.sources}"
        )
    requests: FleetRequestList = []
    for source, profile in enumerate(profiles):
        requests.extend(
            tenant_requests(profile, source, accesses_per_source, config, seed)
        )
    return requests


__all__ = [
    "INSTR_TO_MEM_CYCLES",
    "SCENARIOS",
    "TENANT_PROFILES",
    "make_fleet_requests",
    "scenario_profiles",
    "tenant_requests",
]
