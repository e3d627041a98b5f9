"""Experiment runner: memo, persistent result cache, then simulation.

:func:`run_cells` resolves each (benchmark, mechanism) cell from the
caller's in-process memo, else from the persistent store, else by
simulating it:

* **Persistence** — every simulated cell is written to a
  content-addressed JSON store under ``.repro-cache/`` keyed by a
  stable hash of (benchmark, mechanism, access count, seed, full
  :class:`SystemConfig`, code version), so re-running a figure hits
  disk instead of re-simulating, across processes *and* across
  invocations.  Any source change under ``src/repro`` changes the
  code-version component and cleanly invalidates every stale entry.
* **Simulation** — :func:`execute_cell`, inline while ``REPRO_JOBS``
  (or the CLI's ``--jobs``) is 1, the default.  Above 1 the cells run
  on the job service's :class:`~repro.service.pool.WorkerPool`
  (processes: the simulator is CPU-bound pure Python), which retries
  a crashed worker's cell.  Results are identical either way.

Environment knobs::

    REPRO_JOBS=8        # worker processes (0 = all cores, default 1)
    REPRO_CACHE=0       # disable the persistent cache entirely
    REPRO_CACHE_DIR=d   # cache location (default ./.repro-cache)
    REPRO_PROGRESS=1    # force progress lines on (0 = off,
                        # unset or empty = only when stderr is a tty)
    REPRO_CHECKPOINT=1  # snapshot in-flight cells (SIGTERM + periodic)
                        # under <cache>/checkpoints/ and auto-resume
    REPRO_CHECKPOINT_EVERY=N  # periodic snapshot interval in memory
                        # cycles (default 1000000)
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
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

import repro
from repro.controller.system import MemorySystem
from repro.cpu.core import CoreResult, OoOCore
from repro.errors import ConfigError, ReproError
from repro.sim.config import SystemConfig
from repro.sim.profile import env_flag
from repro.sim.stats import SimStats
from repro.workloads.spec2000 import make_benchmark_trace
from repro.workloads.trace import Trace

#: One fully-resolved unit of work: (benchmark, mechanism, accesses,
#: seed, config).  Scaling (REPRO_SCALE) and defaulting happen in
#: ``experiments.common`` before a cell reaches this module.
Cell = Tuple[str, str, int, int, SystemConfig]

#: Bump to invalidate every cached result regardless of code version
#: (e.g. when the cache file layout itself changes).
CACHE_VERSION = 1


# ----------------------------------------------------------------------
# Knobs
# ----------------------------------------------------------------------


def default_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: ``jobs``, else ``REPRO_JOBS`` (0 = all cores, default 1)."""
    name = "REPRO_JOBS" if jobs is None else "jobs"
    raw = os.environ.get("REPRO_JOBS", "1") if jobs is None else jobs
    try:
        count = int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None
    if count < 0:
        raise ConfigError(f"{name} must be >= 0, got {count}")
    return count if count else (os.cpu_count() or 1)


def cache_enabled() -> bool:
    """Persistent caching is on unless ``REPRO_CACHE=0``."""
    return env_flag("REPRO_CACHE", unset=True, empty=True)


def cache_dir() -> Path:
    """Cache root: ``REPRO_CACHE_DIR`` or ``./.repro-cache``."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------

_code_version: Optional[str] = None


def code_version() -> str:
    """Digest of every ``repro`` source file, computed once per process.

    Folding this into every cell key means a cached result can never
    outlive the simulator that produced it: touch any file under
    ``src/repro`` and the whole store is cleanly invalidated (stale
    entries are simply never addressed again; ``cache clear`` reclaims
    the disk).
    """
    global _code_version
    if _code_version is None:
        from repro.checkpoint import SCHEMA_VERSION

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        # The checkpoint schema version is part of the digest in its
        # own right: cell keys name runner checkpoints, so a schema
        # bump must orphan old snapshots even if some future packaging
        # change ships serialization outside the hashed source tree.
        digest.update(f"checkpoint-schema:{SCHEMA_VERSION}".encode("utf-8"))
        _code_version = digest.hexdigest()[:16]
    return _code_version


def cell_key(
    benchmark: str,
    mechanism: str,
    accesses: int,
    seed: int,
    config: Union[SystemConfig, Dict[str, object]],
) -> str:
    """Content address of one cell — stable across processes.

    ``config`` may be given as its ``to_dict()``, so cells that share
    a config serialise it once.
    """
    payload = {
        "cache_version": CACHE_VERSION,
        "code_version": code_version(),
        "benchmark": benchmark,
        "mechanism": mechanism,
        "accesses": accesses,
        "seed": seed,
        "config": config if isinstance(config, dict) else config.to_dict(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _cache_path(key: str) -> Path:
    # Two-level fan-out keeps directories small on big sweeps.
    return cache_dir() / key[:2] / f"{key}.json"


# ----------------------------------------------------------------------
# Cache I/O
# ----------------------------------------------------------------------


def cache_load(key: str) -> Optional[Tuple[SimStats, CoreResult]]:
    """Load one cached cell; any corruption reads as a miss, including
    well-formed JSON of the wrong shape (``null``, an int for a dict)."""
    path = _cache_path(key)
    try:
        data = json.loads(path.read_text())
        return (
            SimStats.from_dict(data["stats"]),
            CoreResult.from_dict(data["core"]),
        )
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None


def cache_store(key: str, cell: Cell, stats_dict: dict, core_dict: dict) -> None:
    """Atomically persist one cell's ``to_dict`` stats and core results
    (tmp file + rename)."""
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
    root = cache_dir()
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
    root = cache_dir()
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
    root = cache_dir()
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


def checkpoint_enabled() -> bool:
    """In-flight cell snapshotting is opt-in via ``REPRO_CHECKPOINT=1``."""
    return env_flag("REPRO_CHECKPOINT", unset=False)


def checkpoint_every() -> int:
    """Periodic snapshot interval (``REPRO_CHECKPOINT_EVERY`` cycles)."""
    raw = os.environ.get("REPRO_CHECKPOINT_EVERY", "1000000")
    try:
        every = int(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_CHECKPOINT_EVERY must be an integer, got {raw!r}"
        ) from None
    if every <= 0:
        raise ConfigError(
            f"REPRO_CHECKPOINT_EVERY must be positive, got {every}"
        )
    return every


def checkpoint_path(key: str) -> Path:
    """Where an in-flight cell's snapshot lives (keyed like the cache).

    The cell key folds the code version (which folds the checkpoint
    schema version), so a snapshot can never be resumed by a simulator
    that would deserialize it differently — the new code simply
    addresses a different path.
    """
    return cache_dir() / "checkpoints" / f"{key}.ckpt"


@dataclass
class CellRun:
    """Outcome of :func:`execute_cell`, with resume provenance."""

    stats: SimStats
    core: CoreResult
    #: Memory cycle the run resumed from (``None`` = started fresh).
    resumed_cycle: Optional[int] = None


@functools.lru_cache(maxsize=1)
def _cell_trace(benchmark: str, accesses: int, seed: int) -> Trace:
    """The cell's trace, kept for the next cell that shares it.

    Matrices expand benchmark-major, so consecutive cells on one worker
    differ only in mechanism and reuse one trace.  A single entry keeps
    memory flat however large the matrix; a packed trace is immutable,
    so every cell may share it.
    """
    return make_benchmark_trace(benchmark, accesses, seed)


def execute_cell(
    cell: Cell,
    checkpoint: Optional[bool] = None,
    every: Optional[int] = None,
    progress: Optional[Callable] = None,
    progress_every: Optional[int] = None,
    on_save: Optional[Callable] = None,
) -> CellRun:
    """One closed-loop run — the worker-callable cell API.

    Pure function of the cell; everything else controls observation
    and interruption.  ``checkpoint`` (default: the
    ``REPRO_CHECKPOINT`` knob) snapshots the run periodically (every
    ``every`` cycles) and on SIGTERM (exiting 143), keyed next to the
    result cache; a rerun of the same cell resumes from the snapshot
    instead of starting over, and a completed cell deletes it.
    Results are byte-identical either way, so the cache stays
    oblivious.  ``progress(driver)`` fires every ``progress_every``
    memory cycles and ``on_save(driver, preempting)`` after every
    snapshot — the job-service worker streams both as events.
    """
    benchmark, mechanism, accesses, seed, config = cell
    system = MemorySystem(config, mechanism)
    core = OoOCore(system, _cell_trace(benchmark, accesses, seed))
    checkpoint = checkpoint_enabled() if checkpoint is None else checkpoint
    checkpointer = None
    snapshot: Optional[Path] = None
    resumed_cycle: Optional[int] = None
    if checkpoint:
        from repro.checkpoint import Checkpointer, load_checkpoint
        from repro.errors import CheckpointMismatchError

        key = cell_key(benchmark, mechanism, accesses, seed, config)
        snapshot = checkpoint_path(key)
        checkpointer = Checkpointer(
            str(snapshot),
            every=checkpoint_every() if every is None else every,
            meta={"cell_key": key, "benchmark": benchmark,
                  "mechanism": mechanism, "accesses": accesses,
                  "seed": seed},
            progress=progress,
            progress_every=progress_every,
            on_save=on_save,
        )
        checkpointer.install_signal_handler()
        if snapshot.exists():
            try:
                load_checkpoint(str(snapshot), core)
                resumed_cycle = system.cycle
            except CheckpointMismatchError:
                # Defensive: the key should make this impossible, but a
                # bad snapshot must never wedge the cell permanently.
                snapshot.unlink(missing_ok=True)
    try:
        result = core.run(checkpointer=checkpointer)
    finally:
        # The flag-only SIGTERM handler is useless (and harmful: it
        # would absorb the SIGTERM that shuts an idle worker down) once
        # the polling run loop is gone.
        if checkpointer is not None:
            checkpointer.uninstall_signal_handler()
    if snapshot is not None:
        snapshot.unlink(missing_ok=True)
    return CellRun(system.stats, result, resumed_cycle)


async def _run_on_pool(
    pending: List[Cell],
    workers: int,
    finish: Callable[[Cell, SimStats, CoreResult], None],
) -> None:
    """Simulate ``pending`` on ``workers`` pool workers; ``finish`` each.

    Imported and run only when ``jobs > 1``, so inline runs never load
    ``asyncio``.  The parent owns all cache traffic, so the
    executed/cached accounting stays exact.
    """
    import asyncio

    from repro.service.jobs import sim_cell_spec
    from repro.service.pool import WorkerPool

    outcomes: asyncio.Queue = asyncio.Queue()
    pool = WorkerPool(
        workers,
        on_done=lambda task, worker, event: outcomes.put_nowait((task, event)),
        on_failed=lambda task, error: outcomes.put_nowait((task, error)),
        checkpoint=checkpoint_enabled(),
    )
    for index, cell in enumerate(pending):
        pool.submit(sim_cell_spec(*cell), (0, 0, index))
    try:
        await pool.start()
        for _ in pool.tasks:  # one outcome per task
            task, outcome = await outcomes.get()
            if isinstance(outcome, str):
                raise ReproError(f"cell {task.spec.label} failed: {outcome}")
            finish(
                pending[task.sort_key[2]],  # sort keys end in the index
                SimStats.from_dict(outcome["stats"]),
                CoreResult.from_dict(outcome["core"]),
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


def _auto_progress() -> Optional[Callable[[RunReport], None]]:
    """The progress reporter ``REPRO_PROGRESS`` asks for (tty default)."""
    tty = sys.stderr.isatty()
    if env_flag("REPRO_PROGRESS", unset=tty, empty=tty):
        return _print_progress
    return None


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
    memo: Optional[Dict[Cell, Tuple[SimStats, CoreResult]]] = None,
    progress: object = None,
) -> Tuple[Dict[Cell, Tuple[SimStats, CoreResult]], RunReport]:
    """Resolve every cell via memo -> disk cache -> simulation.

    ``jobs`` defaults to ``REPRO_JOBS`` (see :func:`default_jobs`);
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
    REPRO_PROGRESS / tty default.
    """
    cells = list(dict.fromkeys(cells))
    jobs = default_jobs(jobs)
    memo = {} if memo is None else memo
    use_disk = cache_enabled()
    report = RunReport(total=len(cells))
    if progress is False:
        notify = None
    elif progress is None:
        notify = _auto_progress()
    else:
        notify = progress
    started = time.monotonic()

    def tick() -> None:
        report.elapsed = time.monotonic() - started
        if notify is not None:
            notify(report)

    results: Dict[Cell, Tuple[SimStats, CoreResult]] = {}
    pending: List[Cell] = []
    keys: Dict[Cell, str] = {}
    for cell in cells:
        hit = memo.get(cell)
        if hit is not None:
            results[cell] = hit
            report.cached_memo += 1
            TOTALS.cached_memo += 1
            tick()
            continue
        if use_disk:
            keys[cell] = cell_key(*cell)
            loaded = cache_load(keys[cell])
            if loaded is not None:
                memo[cell] = loaded
                results[cell] = loaded
                report.cached_disk += 1
                TOTALS.cached_disk += 1
                tick()
                continue
        pending.append(cell)

    def finish(cell: Cell, stats: SimStats, core: CoreResult) -> None:
        if use_disk:
            cache_store(keys[cell], cell, stats.to_dict(), core.to_dict())
        memo[cell] = (stats, core)
        results[cell] = (stats, core)
        report.executed += 1
        TOTALS.executed += 1
        tick()

    if jobs > 1 and len(pending) > 1:
        import asyncio

        asyncio.run(_run_on_pool(pending, min(jobs, len(pending)), finish))
    else:
        for cell in pending:
            run = execute_cell(cell)
            finish(cell, run.stats, run.core)

    report.elapsed = time.monotonic() - started
    TOTALS.total += report.total
    TOTALS.elapsed += report.elapsed
    return results, report


__all__ = [
    "CACHE_VERSION",
    "Cell",
    "CellRun",
    "RunReport",
    "TOTALS",
    "cache_clear",
    "cache_dir",
    "cache_enabled",
    "cache_gc",
    "cache_info",
    "cache_load",
    "cache_store",
    "cell_key",
    "checkpoint_enabled",
    "checkpoint_every",
    "checkpoint_path",
    "code_version",
    "default_jobs",
    "execute_cell",
    "run_cells",
]
