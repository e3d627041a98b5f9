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
  on-disk cache, or simulation, on the job service's worker pool when
  the ``jobs`` setting (or ``jobs=``) asks for more than one worker.

A cell's access count is scaled by the ``scale`` setting and its seed
defaults to the ``seed`` setting (:mod:`repro.settings`).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Tuple

from repro.experiments import runner
from repro.settings import setting
from repro.sim.config import SystemConfig, baseline_config
from repro.workloads.spec2000 import benchmark_names

#: Accesses per benchmark run before the ``scale`` setting applies.
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


def scaled_accesses(accesses: Optional[int] = None) -> int:
    """Apply the ``scale`` setting; keeps at least 500 accesses."""
    base = DEFAULT_ACCESSES if accesses is None else accesses
    return max(500, int(base * setting("scale")))


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
    """One run of any workload the runner takes, with the ``scale`` and
    ``seed`` settings and the default config applied."""
    n = scaled_accesses(accesses)
    seed = setting("seed") if seed is None else seed
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
    "matrix",
    "resolve",
    "scaled_accesses",
]
