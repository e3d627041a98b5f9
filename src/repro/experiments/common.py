"""Shared machinery for the experiment modules that record runner cells.

Each experiment builds its whole cell dict, then resolves it with one
:func:`resolve` call:

* :func:`cell` — one (workload, mechanism, config) run, closed loop
  or open loop (:data:`runner.Cell`), with scaling and the default
  seed and config applied;
* :func:`matrix` — the benchmark x mechanism sweep behind Figures 7,
  9 and 10 (also the job service's ``fig7`` matrix);
* :func:`resolve` — one :func:`runner.run_cells` call: each cell comes
  from the in-process memo (fig7/fig9/fig10 share one matrix), the
  on-disk cache in ``.repro-cache/``, or simulation, on the job
  service's worker pool when ``REPRO_JOBS`` (or ``jobs=``) asks for
  more than one worker.
* Scaling knobs: ``REPRO_SCALE`` multiplies the default access counts
  (use 0.25 for a quick look, 4 for a long, low-noise run) and
  ``REPRO_SEED`` changes the workload seed.
"""

from __future__ import annotations

import math
import os
from typing import Dict, Hashable, Iterable, Optional, Tuple

from repro.errors import ConfigError
from repro.experiments import runner
from repro.sim.config import SystemConfig, baseline_config
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


_cache: Dict[runner.Cell, runner.Result] = {}


def clear_cache() -> None:
    """Drop memoised runs (tests use this between configurations).

    Only the in-process memo is cleared; the persistent on-disk store
    survives (disable it with ``REPRO_CACHE=0`` or wipe it with
    ``repro-experiments cache clear``).
    """
    _cache.clear()


def cell(
    benchmark: str,
    mechanism: str,
    accesses: Optional[int] = None,
    config: Optional[SystemConfig] = None,
    seed: Optional[int] = None,
    threshold: Optional[int] = None,
) -> runner.Cell:
    """One run of any workload the runner takes, with REPRO_SCALE and
    the defaults applied."""
    n = scaled_accesses(accesses)
    seed = default_seed() if seed is None else seed
    cfg = config if config is not None else baseline_config()
    if threshold is not None:
        cfg = cfg.with_threshold(threshold)
    return (benchmark, mechanism, n, seed, cfg)


def matrix(
    benchmarks: Optional[Iterable[str]] = None,
    mechanisms: Optional[Iterable[str]] = None,
    accesses: Optional[int] = None,
    config: Optional[SystemConfig] = None,
    seed: Optional[int] = None,
) -> Dict[Tuple[str, str], runner.Cell]:
    """The benchmark-major ``{(benchmark, mechanism): cell}`` sweep
    behind Figures 7, 9 and 10 (all benchmarks x :data:`MECHANISMS`
    by default)."""
    benchmarks = list(benchmarks) if benchmarks else benchmark_names()
    mechanisms = list(mechanisms) if mechanisms else list(MECHANISMS)
    return {
        (benchmark, mechanism): cell(
            benchmark, mechanism, accesses, config, seed
        )
        for benchmark in benchmarks
        for mechanism in mechanisms
    }


def resolve(
    cells: Dict[Hashable, runner.Cell],
    jobs: Optional[int] = None,
    progress: object = None,
) -> Dict[Hashable, runner.Result]:
    """Every cell's ``(stats, core result)``, under the caller's keys,
    from one :func:`runner.run_cells` call (``jobs`` and ``progress``
    as there); an open-loop cell's core result is ``None``."""
    resolved, _ = runner.run_cells(
        cells.values(), jobs=jobs, memo=_cache, progress=progress
    )
    return {key: resolved[c] for key, c in cells.items()}


__all__ = [
    "DEFAULT_ACCESSES",
    "MECHANISMS",
    "cell",
    "clear_cache",
    "default_seed",
    "matrix",
    "resolve",
    "scale",
    "scaled_accesses",
]
