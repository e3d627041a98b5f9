"""Fairness analysis: per-tenant metrics against solo-run baselines.

Every access carries its tenant in ``MemoryAccess.source`` — a multi-tenant
scenario's tenant or a CMP mix's core (:mod:`repro.workloads.mixes`)
— and the controller records per-source statistics
(:class:`~repro.sim.stats.SourceStats`).  From those come the standard
multiprogram metrics against *solo-run* baselines (each tenant run
alone on the same machine and mechanism):

* ``weighted_speedup`` — ``(1/K) * sum(solo_i / shared_i)`` over a
  per-tenant cost metric (mean read latency here); 1.0 means sharing
  cost nothing, lower means contention.
* ``max_slowdown`` — ``max(shared_i / solo_i)``, the victim's view;
  the QoS schedulers exist to pull this down.
* ``speedup_jain`` — the one Jain metric: the Jain formula
  (``jain_index``, ``J = (sum x_i)^2 / (n * sum x_i^2)``, bounded in
  ``[1/n, 1]``) over the per-tenant speedups ``solo_i / shared_i``,
  so 1.0 means sharing slowed every tenant by the same factor.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.errors import ConfigError
from repro.sim.stats import SimStats


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
    views = {
        source: stat.read_latency
        for source, stat in sorted(stats.per_source.items())
    }
    return {source: view.mean for source, view in views.items() if view.count}


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
    "jain_index",
    "max_slowdown",
    "per_source_read_latency",
    "per_source_service_rate",
    "speedup_jain",
    "weighted_speedup",
]
