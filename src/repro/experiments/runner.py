"""Experiment runner: memo, persistent result cache, then simulation.

:func:`run_cells` resolves each (workload, mechanism) cell from the
caller's in-process memo, else from the persistent store, else by
simulating it:

* **Persistence** — every simulated cell is written to a
  content-addressed JSON store under ``.repro-cache/`` keyed by a
  stable hash of (workload, mechanism, access count, seed, full
  :class:`SystemConfig`, code version), so re-running a figure hits
  disk instead of re-simulating, across processes *and* across
  invocations.  Any source change under ``src/repro`` changes the
  code-version component and cleanly invalidates every stale entry.
* **Simulation** — :func:`execute_cell`, inline while the ``jobs``
  setting (``REPRO_JOBS``, ``--jobs``) is 1, the default.  Above 1 the
  cells run on the job service's :class:`~repro.service.pool.WorkerPool`
  (processes: the simulator is CPU-bound pure Python), which retries
  a crashed worker's cell.  Results are identical either way.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.controller.system import MemorySystem
from repro.cpu.core import CoreResult, OoOCore
from repro.errors import ConfigError, ReproError
from repro.settings import Settings, setting
from repro.sim.config import SystemConfig
from repro.sim.engine import OpenLoopDriver
from repro.sim.stats import SimStats
from repro.version import code_version
from repro.workloads import make_requests, make_trace, open_loop
from repro.workloads.trace import Trace

#: One fully-resolved unit of work: (workload, mechanism, accesses,
#: seed, config); an open-loop workload name drains an
#: :class:`OpenLoopDriver`, any other runs an :class:`OoOCore`.  Scaling
#: (REPRO_SCALE) and defaulting happen in ``experiments.common``.
Cell = Tuple[str, str, int, int, SystemConfig]

#: A resolved cell: its stats and core result (``None`` if open loop).
Result = Tuple[SimStats, Optional[CoreResult]]

#: Bump to invalidate every cached result regardless of code version
#: (e.g. when the cache file layout itself changes).
CACHE_VERSION = 1


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------


def cell_key(
    benchmark: str,
    mechanism: str,
    accesses: int,
    seed: int,
    config: SystemConfig,
) -> str:
    """Content address of one cell — stable across processes."""
    payload = {
        "cache_version": CACHE_VERSION,
        "code_version": code_version(),
        "benchmark": benchmark,
        "mechanism": mechanism,
        "accesses": accesses,
        "seed": seed,
        "config": config.to_dict(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cell_wire(cell: Cell) -> Dict[str, object]:
    """A cell as plain JSON: the one wire form, closed or open loop.

    The config travels whole (``SystemConfig.to_dict()``), so sender
    and receiver agree on the exact machine.  :func:`cell_from_wire`
    is the inverse.
    """
    benchmark, mechanism, accesses, seed, config = cell
    return {
        "benchmark": benchmark,
        "mechanism": mechanism,
        "accesses": accesses,
        "seed": seed,
        "config": config.to_dict(),
    }


def cell_from_wire(data: Dict[str, object]) -> Cell:
    """The cell :func:`cell_wire` encoded; raises ``KeyError``,
    ``TypeError`` or ``ValueError`` on a malformed dict."""
    return (
        data["benchmark"],
        data["mechanism"],
        int(data["accesses"]),
        int(data["seed"]),
        SystemConfig.from_dict(data["config"]),
    )


def _cache_path(key: str) -> Path:
    # Two-level fan-out keeps directories small on big sweeps.
    return setting("cache_dir") / key[:2] / f"{key}.json"


# ----------------------------------------------------------------------
# Cache I/O
# ----------------------------------------------------------------------


def _core(benchmark: str, core_dict) -> Optional[CoreResult]:
    """A cell's core result from its ``to_dict``; none if open loop."""
    return None if open_loop(benchmark) else CoreResult.from_dict(core_dict)


def cache_load(key: str) -> Optional[Result]:
    """Load one cached cell; any corruption reads as a miss, including
    well-formed JSON of the wrong shape (``null``, an int for a dict)."""
    path = _cache_path(key)
    try:
        data = json.loads(path.read_text())
        return (
            SimStats.from_dict(data["stats"]),
            _core(data["benchmark"], data["core"]),
        )
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None


def cache_store(key: str, cell: Cell, stats_dict: dict, core_dict: Optional[dict]) -> None:
    """Atomically persist one cell's ``to_dict`` stats and core results
    (tmp file + rename; ``core`` is ``null`` for an open-loop cell)."""
    benchmark, mechanism, accesses, seed, config = cell
    path = _cache_path(key)
    payload = {
        "key": key,
        "benchmark": benchmark,
        "mechanism": mechanism,
        "accesses": accesses,
        "seed": seed,
        "generation": config.timing.name,
        "code_version": code_version(),
        "stats": stats_dict,
        "core": core_dict,
    }
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)
    except OSError:
        pass  # a read-only cache dir degrades to "no persistence"


def cache_info() -> Dict[str, object]:
    """Summarise the persistent store for ``cache info``."""
    root = setting("cache_dir")
    entries = 0
    current = 0
    size = 0
    by_benchmark: Dict[str, int] = {}
    version = code_version()
    if root.is_dir():
        for path in root.rglob("*.json"):
            try:
                data = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if not isinstance(data, dict):
                continue  # well-formed JSON, but not an entry
            entries += 1
            size += path.stat().st_size
            if data.get("code_version") == version:
                current += 1
            bench = data.get("benchmark", "?")
            by_benchmark[bench] = by_benchmark.get(bench, 0) + 1
    return {
        "dir": str(root),
        "entries": entries,
        "current_entries": current,
        "bytes": size,
        "code_version": version,
        "by_benchmark": dict(sorted(by_benchmark.items())),
    }


def cache_clear() -> int:
    """Delete the persistent store; returns entries removed."""
    root = setting("cache_dir")
    if not root.is_dir():
        return 0
    removed = sum(1 for _ in root.rglob("*.json"))
    shutil.rmtree(root)
    return removed


def cache_gc(max_bytes: int) -> Tuple[int, int]:
    """Evict least-recently-used entries until the store fits.

    A long-running job service writes every simulated cell to
    ``.repro-cache/``, so without a bound the store grows forever.
    Eviction is LRU by file mtime over both result entries
    (``*.json``) and in-flight checkpoint snapshots (``*.ckpt``) —
    evicting a snapshot only costs a preempted cell its resume point
    (it restarts from zero, still correct), and active snapshots are
    recently written so LRU touches them last.

    Returns ``(removed_files, remaining_bytes)``.
    """
    if max_bytes < 0:
        raise ConfigError(f"max_bytes must be >= 0, got {max_bytes}")
    root = setting("cache_dir")
    entries = []
    total = 0
    if root.is_dir():
        for pattern in ("*.json", "*.ckpt"):
            for path in root.rglob(pattern):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
    removed = 0
    for _mtime, size, path in sorted(entries, key=lambda e: e[:2]):
        if total <= max_bytes:
            break
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        removed += 1
    return removed, total


# ----------------------------------------------------------------------
# Simulation
# ----------------------------------------------------------------------


def checkpoint_path(key: str) -> Path:
    """Where an in-flight cell's snapshot lives (keyed like the cache).

    The cell key folds the code version, so other code addresses
    another path; a snapshot's header carries the code version as well,
    and loading refuses one written by other code.
    """
    return setting("cache_dir") / "checkpoints" / f"{key}.ckpt"


@dataclass
class CellRun:
    """Outcome of :func:`execute_cell`, with resume provenance."""

    stats: SimStats
    #: The core's result; ``None`` for an open-loop drain.
    core: Optional[CoreResult]
    #: The memory system's name for the mechanism (``Burst_TH52``).
    mechanism_name: str
    #: Memory cycle the run resumed from (``None`` = started fresh).
    resumed_cycle: Optional[int] = None


@functools.lru_cache(maxsize=1)
def _cell_trace(benchmark: str, accesses: int, seed: int) -> Trace:
    """The cell's trace, kept for the next cell that shares it.

    Matrices expand benchmark-major, so consecutive cells on one worker
    differ only in mechanism and reuse one trace.  A single entry keeps
    memory flat however large the matrix; a packed trace is immutable,
    so every cell may share it.  ``benchmark`` is any workload name
    :func:`~repro.workloads.make_trace` accepts.
    """
    return make_trace(benchmark, accesses, seed)


def execute_cell(
    cell: Cell,
    key: Optional[str] = None,
    progress: Optional[Callable] = None,
    progress_every: Optional[int] = None,
    on_save: Optional[Callable] = None,
) -> CellRun:
    """One cell's run — the worker-callable cell API.

    An open-loop workload name drains an :class:`OpenLoopDriver` over
    :func:`~repro.workloads.make_requests`, any other runs an
    :class:`OoOCore` over its trace.  Pure function of the cell;
    everything else controls observation and interruption.  The
    ``checkpoint`` setting snapshots the run periodically (every
    ``checkpoint_every`` cycles) and on SIGTERM (exiting 143), keyed
    next to the result cache; a rerun of the same cell resumes from
    the snapshot instead of starting over, and a completed cell
    deletes it.  The snapshot lives under ``key``, the cell's
    :func:`cell_key` as its caller computed it (computed here only
    when not given): a pool worker checkpoints under the key the pool
    sent, never under one of its own code version.
    Results are byte-identical either way, so the cache stays
    oblivious.  ``progress(driver)`` fires every ``progress_every``
    memory cycles and ``on_save(driver, preempting)`` after every
    snapshot — the job-service worker streams both as events.
    """
    benchmark, mechanism, accesses, seed, config = cell
    system = MemorySystem(config, mechanism)
    if open_loop(benchmark):
        driver = OpenLoopDriver(
            system, make_requests(benchmark, accesses, config, seed)
        )
    else:
        driver = OoOCore(system, _cell_trace(benchmark, accesses, seed))
    checkpointer = None
    snapshot: Optional[Path] = None
    resumed_cycle: Optional[int] = None
    if setting("checkpoint"):
        from repro.checkpoint import Checkpointer, load_checkpoint
        from repro.errors import CheckpointMismatchError

        if key is None:
            key = cell_key(*cell)
        snapshot = checkpoint_path(key)
        checkpointer = Checkpointer(
            str(snapshot),
            every=setting("checkpoint_every"),
            progress=progress,
            progress_every=progress_every,
            on_save=on_save,
        )
        checkpointer.install_signal_handler()
        if snapshot.exists():
            try:
                driver = load_checkpoint(str(snapshot), driver)
                resumed_cycle = driver.system.cycle
            except CheckpointMismatchError as error:
                # The key holds neither the oracle nor the engine mode,
                # and a kill can leave a damaged file behind.  Say so,
                # then start over: a bad snapshot must never wedge the
                # cell permanently.
                print(
                    f"discarded snapshot of {benchmark}/{mechanism}: "
                    f"{error}; starting over",
                    file=sys.stderr,
                )
                snapshot.unlink(missing_ok=True)
    try:
        result = driver.run(checkpointer=checkpointer)
    finally:
        # The flag-only SIGTERM handler is useless (and harmful: it
        # would absorb the SIGTERM that shuts an idle worker down) once
        # the polling run loop is gone.
        if checkpointer is not None:
            checkpointer.uninstall_signal_handler()
    if snapshot is not None:
        snapshot.unlink(missing_ok=True)
    core = result if isinstance(result, CoreResult) else None
    system = driver.system
    return CellRun(system.stats, core, system.mechanism_name, resumed_cycle)


async def _run_on_pool(
    pending: Dict[str, Cell],
    workers: int,
    finish: Callable[[str, SimStats, Optional[CoreResult]], None],
) -> None:
    """Simulate ``pending`` (key -> cell) on ``workers`` pool workers;
    ``finish`` each by key.

    Imported and run only when ``jobs > 1``, so inline runs never load
    ``asyncio``.  The parent owns all cache traffic, so the
    executed/cached accounting stays exact.
    """
    import asyncio

    from repro.service.pool import WorkerPool

    outcomes: asyncio.Queue = asyncio.Queue()
    pool = WorkerPool(
        workers,
        on_done=lambda task, worker, event: outcomes.put_nowait((task, event)),
        on_failed=lambda task, error: outcomes.put_nowait((task, error)),
    )
    for index, (key, cell) in enumerate(pending.items()):
        pool.submit(key, cell, (0, 0, index))
    try:
        await pool.start()
        for _ in pool.tasks:  # one outcome per task
            task, outcome = await outcomes.get()
            if isinstance(outcome, str):
                raise ReproError(f"cell {task.label} failed: {outcome}")
            finish(
                task.key,
                SimStats.from_dict(outcome["stats"]),
                _core(task.cell[0], outcome["core"]),
            )
    finally:
        await pool.shutdown()


# ----------------------------------------------------------------------
# Progress / accounting
# ----------------------------------------------------------------------


@dataclass
class RunReport:
    """Provenance of one :func:`run_cells` call."""

    total: int = 0
    cached_memo: int = 0
    cached_disk: int = 0
    executed: int = 0
    elapsed: float = 0.0

    @property
    def done(self) -> int:
        return self.cached_memo + self.cached_disk + self.executed

    @property
    def running(self) -> int:
        return self.total - self.done


#: Session-wide totals across every run_cells call (CLI summary line).
TOTALS = RunReport()


def _print_progress(report: RunReport) -> None:
    line = (
        f"[matrix] {report.done}/{report.total} cells"
        f" | memo {report.cached_memo}"
        f" | disk {report.cached_disk}"
        f" | simulated {report.executed}"
        f" | running {report.running}"
        f" | {report.elapsed:.1f}s"
    )
    try:
        tty = sys.stderr.isatty()
    except (AttributeError, ValueError):
        tty = False
    if tty:
        # Interactive: redraw one status line in place.
        sys.stderr.write("\r" + line)
        if report.done == report.total:
            sys.stderr.write("\n")
    else:
        # Piped (REPRO_PROGRESS=1 under the job service, CI logs):
        # carriage-return redraws would accumulate into one unreadable
        # mega-line and an unterminated tail can be lost in a broken
        # pipe, so emit complete, newline-terminated lines instead.
        sys.stderr.write(line + "\n")
    sys.stderr.flush()


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------


def run_cells(
    cells: Iterable[Cell],
    jobs: Optional[int] = None,
    memo: Optional[Dict[Cell, Result]] = None,
    progress: object = None,
) -> Tuple[Dict[Cell, Result], RunReport]:
    """Resolve every cell via memo -> disk cache -> simulation.

    ``jobs`` defaults to the ``jobs`` setting and is checked like it;
    misses are simulated on a worker pool when ``jobs > 1`` and more
    than one cell misses, otherwise inline (identical results either
    way — the simulator is a pure function of the cell, and
    ``tests/test_runner.py`` asserts byte-identical stats across both
    paths).  A cell that fails on the pool stops the run: the workers
    shut down and :class:`ReproError` names the cell.

    ``memo`` is the caller's in-process dict; hits return the *same*
    objects, preserving the memoisation identity semantics of
    ``experiments.common``.  ``progress`` may be a callable taking the
    :class:`RunReport`, ``False`` to disable, or ``None`` for the
    ``progress`` setting (``None`` there: only when stderr is a tty).
    """
    cells = list(dict.fromkeys(cells))
    jobs = setting("jobs") if jobs is None else Settings(jobs=jobs).jobs
    memo = {} if memo is None else memo
    use_disk = setting("cache")
    report = RunReport(total=len(cells))
    if progress is None:
        progress = setting("progress")
        progress = sys.stderr.isatty() if progress is None else progress
    notify = _print_progress if progress is True else progress or None
    started = time.monotonic()

    def tick() -> None:
        report.elapsed = time.monotonic() - started
        if notify is not None:
            notify(report)

    results: Dict[Cell, Result] = {}
    pending: Dict[str, Cell] = {}  # each miss under its one key
    for cell in cells:
        hit = memo.get(cell)
        if hit is not None:
            results[cell] = hit
            report.cached_memo += 1
            TOTALS.cached_memo += 1
            tick()
            continue
        key = cell_key(*cell)
        loaded = cache_load(key) if use_disk else None
        if loaded is not None:
            memo[cell] = loaded
            results[cell] = loaded
            report.cached_disk += 1
            TOTALS.cached_disk += 1
            tick()
            continue
        pending[key] = cell

    def finish(key: str, stats: SimStats, core: Optional[CoreResult]) -> None:
        cell = pending[key]
        if use_disk:
            cache_store(key, cell, stats.to_dict(), core and core.to_dict())
        memo[cell] = (stats, core)
        results[cell] = (stats, core)
        report.executed += 1
        TOTALS.executed += 1
        tick()

    if jobs > 1 and len(pending) > 1:
        import asyncio

        asyncio.run(_run_on_pool(pending, min(jobs, len(pending)), finish))
    else:
        for key, cell in pending.items():
            run = execute_cell(cell, key)
            finish(key, run.stats, run.core)

    report.elapsed = time.monotonic() - started
    TOTALS.total += report.total
    TOTALS.elapsed += report.elapsed
    return results, report


__all__ = [
    "CACHE_VERSION",
    "Cell",
    "CellRun",
    "Result",
    "RunReport",
    "TOTALS",
    "cache_clear",
    "cache_gc",
    "cache_info",
    "cache_load",
    "cache_store",
    "cell_from_wire",
    "cell_key",
    "cell_wire",
    "checkpoint_path",
    "code_version",
    "execute_cell",
    "run_cells",
]
