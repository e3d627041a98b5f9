"""Shared machinery for the experiment modules.

* :func:`run_benchmark` — one (benchmark, mechanism) closed-loop run,
  memoised so experiments that share cells (fig7/fig9/fig10 all use
  the same matrix) don't recompute them.
* :func:`run_matrix` — the full benchmark x mechanism sweep, run on
  the job service's worker pool when ``REPRO_JOBS`` (or ``jobs=``)
  asks for more than one worker, and served from the persistent
  on-disk cache in ``.repro-cache/`` when a cell has been simulated
  before (see :mod:`repro.experiments.runner`).
* Scaling knobs: ``REPRO_SCALE`` multiplies the default access counts
  (use 0.25 for a quick look, 4 for a long, low-noise run) and
  ``REPRO_SEED`` changes the workload seed.
"""

from __future__ import annotations

import math
import os
from typing import Dict, Iterable, Optional, Tuple

from repro.cpu.core import CoreResult
from repro.errors import ConfigError
from repro.experiments import runner
from repro.sim.config import SystemConfig, baseline_config
from repro.sim.stats import SimStats
from repro.workloads.spec2000 import benchmark_names

#: Accesses per benchmark run before REPRO_SCALE is applied.
DEFAULT_ACCESSES = 6000

#: Paper Table 4 mechanism order, used by every per-mechanism figure.
MECHANISMS = (
    "BkInOrder",
    "RowHit",
    "Intel",
    "Intel_RP",
    "Burst",
    "Burst_RP",
    "Burst_WP",
    "Burst_TH",
)


def scale() -> float:
    """The REPRO_SCALE multiplier (default 1.0): a finite float > 0."""
    text = os.environ.get("REPRO_SCALE", "1.0")
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise ConfigError(f"REPRO_SCALE must be a finite number > 0, got {text!r}")
    return value


def default_seed() -> int:
    """The REPRO_SEED workload seed (default 1): an integer."""
    text = os.environ.get("REPRO_SEED", "1")
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"REPRO_SEED must be an integer, got {text!r}") from None


def scaled_accesses(accesses: Optional[int] = None) -> int:
    """Apply REPRO_SCALE; keeps at least 500 accesses for stability."""
    base = DEFAULT_ACCESSES if accesses is None else accesses
    return max(500, int(base * scale()))


_cache: Dict[Tuple, Tuple[SimStats, CoreResult]] = {}


def clear_cache() -> None:
    """Drop memoised runs (tests use this between configurations).

    Only the in-process memo is cleared; the persistent on-disk store
    survives (disable it with ``REPRO_CACHE=0`` or wipe it with
    ``repro-experiments cache clear``).
    """
    _cache.clear()


def _resolve_cell(
    benchmark: str,
    mechanism: str,
    accesses: Optional[int],
    config: Optional[SystemConfig],
    seed: Optional[int],
    threshold: Optional[int] = None,
) -> runner.Cell:
    """Apply scaling and defaults, yielding a fully-resolved cell."""
    n = scaled_accesses(accesses)
    seed = default_seed() if seed is None else seed
    cfg = config if config is not None else baseline_config()
    if threshold is not None:
        cfg = cfg.with_threshold(threshold)
    return (benchmark, mechanism, n, seed, cfg)


def run_benchmark(
    benchmark: str,
    mechanism: str,
    accesses: Optional[int] = None,
    config: Optional[SystemConfig] = None,
    seed: Optional[int] = None,
    threshold: Optional[int] = None,
) -> SimStats:
    """Run one benchmark through one mechanism; returns its stats."""
    stats, _ = run_benchmark_full(
        benchmark, mechanism, accesses, config, seed, threshold
    )
    return stats


def run_benchmark_full(
    benchmark: str,
    mechanism: str,
    accesses: Optional[int] = None,
    config: Optional[SystemConfig] = None,
    seed: Optional[int] = None,
    threshold: Optional[int] = None,
) -> Tuple[SimStats, CoreResult]:
    """Memoised closed-loop run returning (stats, core result)."""
    cell = _resolve_cell(
        benchmark, mechanism, accesses, config, seed, threshold
    )
    hit = _cache.get(cell)
    if hit is not None:
        return hit
    results, _ = runner.run_cells(
        [cell], jobs=1, memo=_cache, progress=False
    )
    return results[cell]


def run_matrix(
    benchmarks: Optional[Iterable[str]] = None,
    mechanisms: Optional[Iterable[str]] = None,
    accesses: Optional[int] = None,
    config: Optional[SystemConfig] = None,
    seed: Optional[int] = None,
    jobs: Optional[int] = None,
) -> Dict[Tuple[str, str], Tuple[SimStats, CoreResult]]:
    """Run the benchmark x mechanism sweep behind Figures 7, 9 and 10.

    ``jobs`` (default: the ``REPRO_JOBS`` environment knob) selects
    the worker-process count; cells already in the in-process memo or
    the persistent cache are never re-simulated.
    """
    benchmarks = list(benchmarks) if benchmarks else benchmark_names()
    mechanisms = list(mechanisms) if mechanisms else list(MECHANISMS)
    cells = {
        (benchmark, mechanism): _resolve_cell(
            benchmark, mechanism, accesses, config, seed
        )
        for benchmark in benchmarks
        for mechanism in mechanisms
    }
    resolved, _ = runner.run_cells(cells.values(), jobs=jobs, memo=_cache)
    return {pair: resolved[cell] for pair, cell in cells.items()}


__all__ = [
    "DEFAULT_ACCESSES",
    "MECHANISMS",
    "clear_cache",
    "default_seed",
    "run_benchmark",
    "run_benchmark_full",
    "run_matrix",
    "scale",
    "scaled_accesses",
]
