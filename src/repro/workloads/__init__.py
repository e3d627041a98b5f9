"""Workloads: miss traces, synthetic generators and SPEC 2000 profiles.

The paper drives its memory systems with the main-memory access
streams of 16 SPEC CPU2000 benchmarks (the ones showing >2% difference
between in-order and any out-of-order mechanism).  Without SPEC and M5
we substitute parameterised synthetic miss-stream generators (see
DESIGN.md §2): each profile reproduces the stream properties that the
schedulers actually react to — row locality, bank spread, read/write
mix, eviction-echo write locality and arrival burstiness.
"""

from repro.errors import ConfigError
from repro.workloads.trace import Trace, TraceRecord, load_trace, save_trace
from repro.workloads.synthetic import WorkloadSpec, generate_trace
from repro.workloads.microbench import MICROBENCHMARKS
from repro.workloads.mixes import (
    STANDARD_MIXES,
    interleave_traces,
    make_mix_trace,
)
from repro.workloads.spec2000 import (
    BENCHMARKS,
    SPEC_PROFILES,
    benchmark_names,
    make_benchmark_trace,
)
from repro.workloads.fleet import (
    SCENARIOS,
    TENANT_PROFILES,
    make_fleet_requests,
    tenant_requests,
)


def _unknown(name: str) -> ConfigError:
    return ConfigError(
        f"unknown workload {name!r}: expected a SPEC profile "
        f"{BENCHMARKS}, a '+'-joined mix of them, a microbenchmark "
        f"{sorted(MICROBENCHMARKS)}, a fleet scenario {sorted(SCENARIOS)} "
        f"or '<tenant>@<source>' for a tenant {sorted(TENANT_PROFILES)}"
    )


def make_trace(name: str, accesses: int, seed: int = 1) -> Trace:
    """The trace a closed-loop workload name stands for.

    ``name`` is a SPEC profile (:func:`make_benchmark_trace`), a
    ``+``-joined profile list for a CMP mix (:func:`make_mix_trace`,
    ``accesses`` per core) or a :data:`MICROBENCHMARKS` pattern (which
    takes no seed).  Any other name raises :class:`ConfigError`.
    """
    if name in SPEC_PROFILES:
        return make_benchmark_trace(name, accesses, seed)
    if "+" in name:
        return make_mix_trace(name.split("+"), accesses, seed)
    if name in MICROBENCHMARKS:
        return MICROBENCHMARKS[name](accesses)
    raise _unknown(name)


def open_loop(name: str) -> bool:
    """Whether ``name`` is an open-loop workload (:func:`make_requests`)
    rather than a closed-loop one (:func:`make_trace`)."""
    return name in SCENARIOS or "@" in name


def make_requests(name: str, accesses: int, config, seed: int = 1):
    """The timestamped requests an open-loop workload name stands for.

    ``name`` is a fleet scenario (all of its tenants, ``accesses``
    each; :func:`make_fleet_requests`) or ``<tenant>@<source>``: that
    one tenant profile run alone in slice ``source`` of a
    ``config.sources``-way split (:func:`tenant_requests`).  The ``@``
    keeps tenant ``stream`` apart from the microbenchmark ``stream``.
    Any other name raises :class:`ConfigError`.
    """
    if name in SCENARIOS:
        return make_fleet_requests(name, accesses, config, seed)
    profile, _, source = name.partition("@")
    if profile in TENANT_PROFILES and source.isdecimal():
        return tenant_requests(profile, int(source), accesses, config, seed)
    raise _unknown(name)


__all__ = [
    "BENCHMARKS",
    "SPEC_PROFILES",
    "STANDARD_MIXES",
    "Trace",
    "TraceRecord",
    "WorkloadSpec",
    "benchmark_names",
    "generate_trace",
    "interleave_traces",
    "load_trace",
    "make_benchmark_trace",
    "make_mix_trace",
    "make_requests",
    "make_trace",
    "open_loop",
    "save_trace",
]
