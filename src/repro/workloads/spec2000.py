"""Synthetic stand-ins for the paper's 16 SPEC CPU2000 benchmarks.

The paper selects the 16 of 26 SPEC CPU2000 benchmarks that show more
than 2% execution-time difference between in-order scheduling and any
out-of-order mechanism (§4.1).  Each profile below parameterises
:class:`~repro.workloads.synthetic.WorkloadSpec` to match the
qualitative character of the real benchmark's post-L2 miss stream:

* the floating-point sweeps (``swim``, ``mgrid``, ``applu``, ``lucas``,
  ``wupwise``, ``art``) are memory intensive and stream dominated —
  high row locality, many concurrent streams, clustered misses;
* ``mcf`` is intense pointer chasing — almost no locality, read
  dominated;
* the integer codes (``gzip``, ``gcc``, ``parser``, ``perlbmk``,
  ``gap``, ``bzip2``, ``mesa``, ``apsi``, ``facerec``) sit in between,
  with moderate intensity and mixed stream/random behaviour;
* write-heavy profiles (``gcc``, ``lucas``) are the ones the paper
  reports benefiting most from write piggybacking (§5.3), while the
  read-dominated ones (``mcf``, ``parser``, ``perlbmk``, ``facerec``)
  benefit most from read preemption.

APKI (main-memory accesses per kilo-instruction) values set
``mean_gap = 1000 / APKI``.  Absolute numbers are calibrated for
shape, not identity, with the paper's M5 runs — see DESIGN.md §2.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigError
from repro.workloads.synthetic import WorkloadSpec, generate_trace
from repro.workloads.trace import Trace


def _spec(name, apki, write_frac, streams, stream_frac, **kwargs):
    return WorkloadSpec(
        name=name,
        mean_gap=1000.0 / apki,
        write_frac=write_frac,
        streams=streams,
        stream_frac=stream_frac,
        **kwargs,
    )


#: The 16 benchmarks of the paper's Figure 10, in its plotting order.
SPEC_PROFILES: Dict[str, WorkloadSpec] = {
    profile.name: profile
    for profile in (
        # --- integer ---------------------------------------------------
        _spec("gzip", 7, 0.25, 2, 0.7, footprint_mb=32,
              eviction_lag=512, burstiness=0.93, alignment_lines=768),
        _spec("gcc", 20, 0.55, 5, 0.82, footprint_mb=64,
              eviction_lag=256, burstiness=0.985, alignment_lines=1024),
        _spec("mcf", 34, 0.18, 1, 0.05, footprint_mb=192,
              eviction_lag=1024, burstiness=0.85, alignment_lines=1),
        _spec("parser", 8, 0.22, 2, 0.35, footprint_mb=48,
              eviction_lag=768, burstiness=0.93, alignment_lines=512),
        _spec("perlbmk", 6, 0.2, 2, 0.4, footprint_mb=48,
              eviction_lag=768, burstiness=0.92, alignment_lines=512),
        _spec("gap", 8, 0.28, 3, 0.6, footprint_mb=64,
              eviction_lag=512, burstiness=0.93, alignment_lines=768),
        _spec("bzip2", 8, 0.3, 3, 0.65, footprint_mb=64,
              eviction_lag=512, burstiness=0.94, alignment_lines=768),
        # --- floating point ---------------------------------------------
        _spec("wupwise", 14, 0.4, 4, 0.85, footprint_mb=96,
              eviction_lag=256, burstiness=0.98, alignment_lines=1024),
        _spec("swim", 28, 0.45, 6, 0.85, footprint_mb=128,
              eviction_lag=512, burstiness=0.985, alignment_lines=1024),
        _spec("mgrid", 22, 0.42, 5, 0.85, footprint_mb=96,
              eviction_lag=512, burstiness=0.98, alignment_lines=1024),
        _spec("applu", 20, 0.45, 5, 0.8, footprint_mb=128,
              eviction_lag=512, burstiness=0.98, alignment_lines=1024),
        _spec("mesa", 6, 0.28, 3, 0.6, footprint_mb=32,
              eviction_lag=512, burstiness=0.92, alignment_lines=512),
        _spec("art", 24, 0.3, 4, 0.85, footprint_mb=8,
              eviction_lag=384, burstiness=0.975, alignment_lines=1024),
        _spec("facerec", 14, 0.18, 3, 0.6, footprint_mb=64,
              eviction_lag=1024, burstiness=0.96, alignment_lines=768),
        _spec("lucas", 24, 0.5, 6, 0.92, footprint_mb=128,
              eviction_lag=192, burstiness=0.985, alignment_lines=1024),
        _spec("apsi", 16, 0.38, 4, 0.8, footprint_mb=96,
              eviction_lag=256, burstiness=0.975, alignment_lines=1024),
    )
}

#: Benchmark names in the paper's Figure 10 order.
BENCHMARKS: List[str] = list(SPEC_PROFILES)


def benchmark_names() -> List[str]:
    """The 16 simulated SPEC CPU2000 benchmark names."""
    return list(BENCHMARKS)


def get_profile(name: str) -> WorkloadSpec:
    """Look up one benchmark profile by name."""
    try:
        return SPEC_PROFILES[name]
    except KeyError:
        raise ConfigError(
            f"unknown benchmark {name!r}; available: {BENCHMARKS}"
        ) from None


def make_benchmark_trace(name: str, accesses: int, seed: int = 1) -> Trace:
    """Generate the synthetic miss trace for one benchmark."""
    return generate_trace(get_profile(name), accesses, seed)


__all__ = [
    "BENCHMARKS",
    "SPEC_PROFILES",
    "benchmark_names",
    "get_profile",
    "make_benchmark_trace",
]
