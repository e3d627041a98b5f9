"""Fairness analysis: per-core mix views (§6) and fleet-mode metrics.

A CMP mix (:mod:`repro.workloads.mixes`) gives each core a private
1 GB address slice, and the controller records read latency per slice.
These helpers turn that into the standard fairness views: per-core
mean latency, the max/min latency ratio, and the Jain fairness index

    J = (sum x_i)^2 / (n * sum x_i^2)

computed over per-core *service rates* (1/latency), so J = 1 means
every core's reads are served equally fast and J -> 1/n means one
core monopolises the controller.

Fleet mode adds first-class per-source statistics
(:class:`~repro.sim.stats.SourceStats`), and with them the standard
multiprogram metrics against *solo-run* baselines (each tenant run
alone on the same machine and mechanism):

* ``weighted_speedup`` — ``(1/K) * sum(solo_i / shared_i)`` over a
  per-tenant cost metric (mean read latency here); 1.0 means sharing
  cost nothing, lower means contention.
* ``max_slowdown`` — ``max(shared_i / solo_i)``, the victim's view;
  the QoS schedulers exist to pull this down.
* ``jain_index`` — the Jain formula over any per-tenant rate vector
  (bounded in ``[1/n, 1]``); ``speedup_jain`` applies it to the
  per-tenant speedups ``solo_i / shared_i``, so 1.0 means sharing
  slowed every tenant by the same factor.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.errors import ConfigError
from repro.sim.stats import SimStats


def per_core_read_latency(stats: SimStats) -> Dict[int, float]:
    """Mean read latency per 1 GB address slice (core)."""
    return {
        core: latency.mean
        for core, latency in sorted(stats.read_latency_per_slice.items())
        if latency.count
    }


def latency_disparity(stats: SimStats) -> float:
    """Max/min ratio of per-core mean read latencies (1.0 = equal)."""
    latencies = list(per_core_read_latency(stats).values())
    if not latencies:
        raise ConfigError("no per-core read latencies recorded")
    lowest = min(latencies)
    if lowest <= 0:
        raise ConfigError("non-positive latency in fairness input")
    return max(latencies) / lowest


def jain_fairness(stats: SimStats) -> float:
    """Jain index over per-core service rates; 1.0 is perfectly fair."""
    latencies = list(per_core_read_latency(stats).values())
    if not latencies:
        raise ConfigError("no per-core read latencies recorded")
    rates = [1.0 / value for value in latencies if value > 0]
    if not rates:
        raise ConfigError("non-positive latencies in fairness input")
    total = sum(rates)
    squares = sum(rate * rate for rate in rates)
    return (total * total) / (len(rates) * squares)


# ----------------------------------------------------------------------
# Fleet-mode metrics (per-source stats, solo-run baselines)
# ----------------------------------------------------------------------


def jain_index(values: Iterable[float]) -> float:
    """Jain fairness index of a rate vector; bounded in ``[1/n, 1]``."""
    rates = [float(v) for v in values]
    if not rates:
        raise ConfigError("jain_index needs at least one value")
    if any(rate < 0 for rate in rates):
        raise ConfigError("jain_index is defined over non-negative rates")
    total = sum(rates)
    squares = sum(rate * rate for rate in rates)
    if squares == 0:
        return 1.0  # all-zero vector: perfectly (if vacuously) fair
    return (total * total) / (len(rates) * squares)


def per_source_read_latency(stats: SimStats) -> Dict[int, float]:
    """Mean read latency per tenant, from the per-source stats."""
    return {
        source: stat.read_latency.mean
        for source, stat in sorted(stats.per_source.items())
        if stat.read_latency.count
    }


def per_source_service_rate(stats: SimStats, cycles: int) -> Dict[int, float]:
    """Completed accesses per cycle per tenant over a ``cycles`` run."""
    if cycles <= 0:
        raise ConfigError("service rate needs a positive cycle count")
    return {
        source: stat.service_rate(cycles)
        for source, stat in sorted(stats.per_source.items())
    }


def _check_baselines(
    solo: Dict[int, float], shared: Dict[int, float]
) -> None:
    if not shared:
        raise ConfigError("no per-tenant metrics in fairness input")
    missing = sorted(set(shared) - set(solo))
    if missing:
        raise ConfigError(f"no solo baselines for sources {missing}")
    bad = sorted(s for s in shared if solo[s] <= 0 or shared[s] <= 0)
    if bad:
        raise ConfigError(f"non-positive metric for sources {bad}")


def weighted_speedup(
    solo: Dict[int, float], shared: Dict[int, float]
) -> float:
    """``(1/K) * sum(solo_i / shared_i)`` over a per-tenant cost.

    Both dicts map source id to a *cost* metric (e.g. mean read
    latency): values rise when a tenant runs slower, so each ratio is
    that tenant's speedup relative to running alone and 1.0 means
    sharing was free.
    """
    _check_baselines(solo, shared)
    return sum(solo[s] / shared[s] for s in shared) / len(shared)


def max_slowdown(solo: Dict[int, float], shared: Dict[int, float]) -> float:
    """``max(shared_i / solo_i)`` — the worst-treated tenant's slowdown."""
    _check_baselines(solo, shared)
    return max(shared[s] / solo[s] for s in shared)


def speedup_jain(solo: Dict[int, float], shared: Dict[int, float]) -> float:
    """Jain index over per-tenant speedups ``solo_i / shared_i``.

    Raw ``1 / shared_i`` would call two tenants served equally fast
    "fair" even when one of them runs four times slower than alone;
    normalising by the solo baseline scores the slowdowns instead.
    """
    _check_baselines(solo, shared)
    return jain_index([solo[s] / shared[s] for s in shared])


__all__ = [
    "jain_fairness",
    "jain_index",
    "latency_disparity",
    "max_slowdown",
    "per_core_read_latency",
    "per_source_read_latency",
    "per_source_service_rate",
    "speedup_jain",
    "weighted_speedup",
]
