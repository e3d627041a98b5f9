"""Registry of the simulated access reordering mechanisms (Table 4).

========== ==========================================================
BkInOrder  In order intra banks, round robin inter banks (baseline)
RowHit     Row hit first intra bank, round robin inter banks [13]
Intel      Intel's patented out of order memory scheduling [14]
Intel_RP   Intel's scheduling with read preemption
Burst      Burst scheduling
Burst_RP   Burst scheduling with read preemption (= TH64)
Burst_WP   Burst scheduling with write piggybacking (= TH0)
Burst_TH   Burst scheduling with threshold (52 by default)
========== ==========================================================

Factories import lazily to avoid an import cycle between
``repro.controller`` and ``repro.core``.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ConfigError

SchedulerFactory = Callable[..., "object"]


def _bkinorder(config, channel, pool, stats):
    from repro.controller.inorder import BkInOrderScheduler

    return BkInOrderScheduler(config, channel, pool, stats)


def _rowhit(config, channel, pool, stats):
    from repro.controller.rowhit import RowHitScheduler

    return RowHitScheduler(config, channel, pool, stats)


def _intel(config, channel, pool, stats):
    from repro.controller.intel import IntelScheduler

    return IntelScheduler(config, channel, pool, stats)


def _intel_rp(config, channel, pool, stats):
    from repro.controller.intel import IntelScheduler

    return IntelScheduler(config, channel, pool, stats, read_preemption=True)


def _burst(config, channel, pool, stats):
    from repro.core.scheduler import BurstScheduler

    return BurstScheduler.plain(config, channel, pool, stats)


def _burst_rp(config, channel, pool, stats):
    from repro.core.scheduler import BurstScheduler

    return BurstScheduler.with_read_preemption(config, channel, pool, stats)


def _burst_wp(config, channel, pool, stats):
    from repro.core.scheduler import BurstScheduler

    return BurstScheduler.with_write_piggybacking(config, channel, pool, stats)


def _burst_th(config, channel, pool, stats):
    from repro.core.scheduler import BurstScheduler

    return BurstScheduler.with_threshold(config, channel, pool, stats)


def _burst_dyn(config, channel, pool, stats):
    from repro.core.dynamic import DynamicThresholdBurstScheduler

    return DynamicThresholdBurstScheduler(config, channel, pool, stats)


def _burst_qw(config, channel, pool, stats):
    from repro.core.qos import WriteQuotaBurstScheduler

    return WriteQuotaBurstScheduler(config, channel, pool, stats)


def _burst_bpw(config, channel, pool, stats):
    from repro.core.bpw import BankParallelWriteScheduler

    return BankParallelWriteScheduler(config, channel, pool, stats)


def _fcfs(config, channel, pool, stats):
    from repro.controller.fcfs import FCFSScheduler

    return FCFSScheduler(config, channel, pool, stats)


#: Name -> factory(config, channel, pool, stats).  The first eight are
#: the paper's Table 4; Burst_DYN is the §7 future-work extension
#: (dynamic threshold from the observed read/write ratio).
MECHANISMS: Dict[str, SchedulerFactory] = {
    "BkInOrder": _bkinorder,
    "RowHit": _rowhit,
    "Intel": _intel,
    "Intel_RP": _intel_rp,
    "Burst": _burst,
    "Burst_RP": _burst_rp,
    "Burst_WP": _burst_wp,
    "Burst_TH": _burst_th,
}

#: Extensions beyond Table 4 (not part of the paper's comparisons):
#: Burst_DYN is the §7 dynamic threshold; FCFS is the fully serialised
#: reference floor; Burst_QW is the multi-tenant QoS variant
#: (per-source write-queue quota, ≡ Burst_TH when sources == 1);
#: Burst_BPW is the BARD-style bank-parallel write drain aimed at the
#: long write recoveries of the DDR5 generation profiles.
EXTENSIONS: Dict[str, SchedulerFactory] = {
    "Burst_DYN": _burst_dyn,
    "FCFS": _fcfs,
    "Burst_QW": _burst_qw,
    "Burst_BPW": _burst_bpw,
}
MECHANISMS.update(EXTENSIONS)


def mechanism_names() -> List[str]:
    """The paper's Table 4 mechanism names, in its order."""
    return [name for name in MECHANISMS if name not in EXTENSIONS]


def extension_names() -> List[str]:
    """Mechanisms implemented beyond Table 4 (§7 future work)."""
    return list(EXTENSIONS)


def make_scheduler_factory(name: str) -> SchedulerFactory:
    """Look up a mechanism factory by name (Table 4 or extension)."""
    try:
        return MECHANISMS[name]
    except KeyError:
        raise ConfigError(
            f"unknown mechanism {name!r}; available: {sorted(MECHANISMS)}"
        ) from None


# ----------------------------------------------------------------------
# Refresh mechanisms (beyond the paper: Chang et al., HPCA 2014)
# ----------------------------------------------------------------------


def _refab(channel, subarrays):
    from repro.dram.refresh import RefreshController

    return RefreshController(channel)


def _refpb(channel, subarrays):
    from repro.dram.refresh import PerBankRefresher

    return PerBankRefresher(channel, subarrays)


def _darp(channel, subarrays):
    from repro.dram.refresh import DARPRefresher

    return DARPRefresher(channel, subarrays)


def _sarp(channel, subarrays):
    from repro.dram.refresh import SARPRefresher

    return SARPRefresher(channel, subarrays)


#: Name -> factory(channel, subarrays).  REFab is the DDR2 all-bank
#: auto-refresh baseline; REFpb is JEDEC per-bank round-robin refresh;
#: DARP adds out-of-order refresh with idle-bank pull-in and write-drain
#: co-scheduling; SARP refreshes one subarray at a time so other
#: subarrays of the same bank stay accessible.
REFRESH_POLICIES: Dict[str, Callable] = {
    "REFab": _refab,
    "REFpb": _refpb,
    "DARP": _darp,
    "SARP": _sarp,
}


def refresh_policy_names() -> List[str]:
    """Supported refresh mechanism names."""
    return list(REFRESH_POLICIES)


def make_refresh_policy(name: str, channel, subarrays: int = 1):
    """Instantiate the refresh mechanism ``name`` for ``channel``."""
    try:
        factory = REFRESH_POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown refresh policy {name!r}; "
            f"available: {refresh_policy_names()}"
        ) from None
    return factory(channel, subarrays)


__all__ = [
    "EXTENSIONS",
    "MECHANISMS",
    "REFRESH_POLICIES",
    "extension_names",
    "make_refresh_policy",
    "make_scheduler_factory",
    "mechanism_names",
    "refresh_policy_names",
]
