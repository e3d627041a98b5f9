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

Each mechanism and refresh policy is one row of a table: the module
and class that implement it and the constructor options that select
it.  The module is imported only when the mechanism is first built,
which breaks the import cycle between ``repro.controller`` and
``repro.core``.
"""

from __future__ import annotations

import functools
import importlib
from typing import Callable, Dict, List, Tuple

from repro.errors import ConfigError

SchedulerFactory = Callable[..., "object"]

#: Name -> (module, class, constructor options).
Spec = Tuple[str, str, Dict[str, object]]

_BURST = ("repro.core.scheduler", "BurstScheduler")
_INTEL = ("repro.controller.intel", "IntelScheduler")

#: The paper's Table 4, in its order.
_TABLE4: Dict[str, Spec] = {
    "BkInOrder": ("repro.controller.inorder", "BkInOrderScheduler", {}),
    "RowHit": ("repro.controller.rowhit", "RowHitScheduler", {}),
    "Intel": (*_INTEL, {}),
    "Intel_RP": (*_INTEL, {"read_preemption": True}),
    "Burst": (*_BURST, {}),
    "Burst_RP": (*_BURST, {"read_preemption": True}),
    "Burst_WP": (*_BURST, {"write_piggybacking": True}),
    "Burst_TH": (
        *_BURST, {"read_preemption": True, "write_piggybacking": True}
    ),
}

#: Extensions beyond Table 4 (not part of the paper's comparisons):
#: Burst_DYN is the §7 dynamic threshold; FCFS is the fully serialised
#: reference floor; Burst_QW is the multi-tenant QoS variant
#: (per-source write-queue quota, ≡ Burst_TH when sources == 1);
#: Burst_BPW is the BARD-style bank-parallel write drain aimed at the
#: long write recoveries of the DDR5 generation profiles.
_EXTENSIONS: Dict[str, Spec] = {
    "Burst_DYN": ("repro.core.dynamic", "DynamicThresholdBurstScheduler", {}),
    "FCFS": ("repro.controller.fcfs", "FCFSScheduler", {}),
    "Burst_QW": ("repro.core.qos", "WriteQuotaBurstScheduler", {}),
    "Burst_BPW": ("repro.core.bpw", "BankParallelWriteScheduler", {}),
}

#: Refresh mechanisms (beyond the paper: Chang et al., HPCA 2014).
#: REFab is the DDR2 all-bank auto-refresh baseline; REFpb is JEDEC
#: per-bank round-robin refresh; DARP adds out-of-order refresh with
#: idle-bank pull-in and write-drain co-scheduling; SARP refreshes one
#: subarray at a time so other subarrays of the same bank stay
#: accessible.  All but REFab take the subarray count.
_REFRESH: Dict[str, Spec] = {
    "REFab": ("repro.dram.refresh", "RefreshController", {}),
    "REFpb": ("repro.dram.refresh", "PerBankRefresher", {}),
    "DARP": ("repro.dram.refresh", "DARPRefresher", {}),
    "SARP": ("repro.dram.refresh", "SARPRefresher", {}),
}


def _build(module: str, name: str, options: Dict[str, object], *args):
    """Import ``module`` (first use only) and construct its class."""
    return getattr(importlib.import_module(module), name)(*args, **options)


def _factories(table: Dict[str, Spec]) -> Dict[str, Callable]:
    return {
        name: functools.partial(_build, *spec) for name, spec in table.items()
    }


#: Name -> factory(config, channel, pool, stats): Table 4, then the
#: extensions.
EXTENSIONS: Dict[str, SchedulerFactory] = _factories(_EXTENSIONS)
MECHANISMS: Dict[str, SchedulerFactory] = {
    **_factories(_TABLE4), **EXTENSIONS
}
#: Name -> factory(channel[, subarrays]); REFab takes no subarrays.
REFRESH_POLICIES: Dict[str, Callable] = _factories(_REFRESH)


def mechanism_names() -> List[str]:
    """The paper's Table 4 mechanism names, in its order."""
    return list(_TABLE4)


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
    if name == "REFab":
        return factory(channel)
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
