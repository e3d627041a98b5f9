"""The cell worker pool: the one place simulator subprocesses start.

A :class:`WorkerPool` keeps ``size`` long-lived
``python -m repro.service.workers`` processes busy, one cell each, over
that module's ND-JSON pipes.  It owns the priority queue and dispatch,
crash retry (``MAX_ATTEMPTS``), SIGTERM preemption and the busy spans
behind ``bubble_fraction``, and reports each cell's fate through
callbacks.  The job server and ``run_cells`` with ``jobs > 1`` drive it
inside their own event loops.

Scheduling is zero-bubble by construction: cells are independent, so
the only decision is "the first idle worker takes the head of the
queue".  A preempted cell (SIGTERM → snapshot at a loop boundary →
exit 143) re-enters the queue *with its progress* and resumes
byte-identically on whichever worker frees up next (DESIGN.md §15).
"""

from __future__ import annotations

import asyncio
import heapq
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import repro

if TYPE_CHECKING:
    from repro.service.jobs import CellSpec

#: Exit code the checkpoint machinery uses for "preempted, snapshot
#: saved" (128 + SIGTERM).  ``-15`` is the same fate seen through
#: ``Process.returncode`` when the signal lands while no cell is
#: running (no handler installed): also not a crash.
PREEMPT_EXIT_CODES = (143, -15)

#: Give up on a cell after this many *crashes* (preemptions are free),
#: and stop spawning after this many workers in a row exit before they
#: report ``ready``.
MAX_ATTEMPTS = 3


@dataclass
class PoolTask:
    """One unique cell in the pool's queue."""

    spec: CellSpec
    sort_key: Tuple[int, int, int]  # (-priority, job_seq, index)
    state: str = "queued"           # queued | running | done | failed
    attempts: int = 0
    snapshot_cycle: Optional[int] = None


@dataclass
class PoolWorker:
    """One worker subprocess slot."""

    index: int
    proc: asyncio.subprocess.Process
    reader: Optional[asyncio.Future] = None
    current: Optional[str] = None   # key of the in-flight cell
    dispatched_at: float = 0.0
    ready: bool = False
    draining: bool = False          # do not respawn on exit

    @property
    def idle(self) -> bool:
        return self.ready and self.current is None


class WorkerPool:
    """Worker subprocesses, the priority queue and every cell's fate.

    Callbacks: ``on_done(task, worker, event)`` with the worker's
    ``done`` event, ``on_failed(task, error)``, and optionally
    ``on_event(task, worker, name, **fields)`` for ``cell_started``
    (``resuming``), ``cell_progress`` (``cycle``) and ``cell_preempted``
    (``snapshot_cycle``).  ``checkpoint`` and ``progress_every`` ride
    along on every run request.
    """

    def __init__(
        self,
        size: int,
        on_done: Callable,
        on_failed: Callable,
        on_event: Optional[Callable] = None,
        checkpoint: bool = True,
        progress_every: Optional[int] = None,
    ) -> None:
        self.size = size
        self.on_done = on_done
        self.on_failed = on_failed
        self.on_event = on_event or (lambda *args, **fields: None)
        self.checkpoint = checkpoint
        self.progress_every = progress_every
        self.tasks: Dict[str, PoolTask] = {}
        self.queue: List[Tuple[Tuple[int, int, int], str]] = []  # heap
        self.workers: Dict[int, PoolWorker] = {}
        self.draining = False
        self._spans: List[Tuple[float, float]] = []  # closed busy spans
        self._worker_seq = 0
        self._unready_exits = 0  # consecutive exits before ``ready``
        # Why the pool stopped spawning workers (None: it has not).
        self._spawn_error: Optional[str] = None

    async def start(self) -> None:
        """Spawn the workers; each takes a cell once it reports ready."""
        for _ in range(self.size):
            await self._spawn_worker()

    def submit(self, spec: CellSpec, sort_key: Tuple[int, int, int]) -> None:
        """Queue one cell; :meth:`dispatch` starts it."""
        self.tasks[spec.key] = PoolTask(spec=spec, sort_key=sort_key)
        heapq.heappush(self.queue, (sort_key, spec.key))

    async def shutdown(self) -> None:
        """Stop dispatching; let idle workers exit, SIGTERM busy ones."""
        self.draining = True
        while self.workers:  # again if a respawn was already under way
            workers = list(self.workers.values())
            for worker in workers:
                worker.draining = True
                if worker.current is None:
                    await self._send_worker(worker, {"op": "exit"})
                else:
                    worker.proc.terminate()
            for worker in workers:
                try:
                    await asyncio.wait_for(worker.proc.wait(), timeout=30)
                except asyncio.TimeoutError:
                    worker.proc.kill()
            await asyncio.gather(*(worker.reader for worker in workers))

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    async def _spawn_worker(self) -> None:
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        extra = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + extra if extra else "")
        env["REPRO_PROGRESS"] = "0"  # events carry progress, not stderr
        proc = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro.service.workers",
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=env,
        )
        self._worker_seq += 1
        worker = PoolWorker(index=self._worker_seq, proc=proc)
        self.workers[worker.index] = worker
        worker.reader = asyncio.ensure_future(self._read_worker(worker))

    async def _send_worker(self, worker: PoolWorker, payload: dict) -> None:
        assert worker.proc.stdin is not None
        worker.proc.stdin.write(
            (json.dumps(payload) + "\n").encode("utf-8")
        )
        try:
            await worker.proc.stdin.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # exit path handles the dead worker

    async def _read_worker(self, worker: PoolWorker) -> None:
        """Consume one worker's event stream until it exits."""
        assert worker.proc.stdout is not None
        while True:
            line = await worker.proc.stdout.readline()
            if not line:
                break
            try:
                event = json.loads(line)
            except ValueError:
                continue
            self._on_worker_event(worker, event)
            await self.dispatch()
        returncode = await worker.proc.wait()
        await self._on_worker_exit(worker, returncode)

    def _on_worker_event(self, worker: PoolWorker, event: dict) -> None:
        kind = event.get("event")
        if kind == "ready":
            worker.ready = True
            self._unready_exits = 0
            return
        if kind in ("done", "failed"):
            self._close_span(worker)
        task = self.tasks.get(event.get("key") or "")
        if task is None:
            return
        if kind == "progress":
            self.on_event(task, worker, "cell_progress", cycle=event.get("cycle"))
        elif kind == "snapshot":
            task.snapshot_cycle = event.get("cycle")
        elif kind == "done" and task.state != "done":
            task.state = "done"
            self.on_done(task, worker, event)
        elif kind == "failed" and task.state == "running":
            self._fail(task, event.get("error", "unknown error"))

    async def _on_worker_exit(self, worker: PoolWorker, returncode: int) -> None:
        """EOF on a worker: preemption, crash, or orderly drain."""
        self.workers.pop(worker.index, None)
        key = worker.current
        if key is not None:
            self._close_span(worker)
            task = self.tasks.get(key)
            if task is not None and task.state == "running":
                if returncode in PREEMPT_EXIT_CODES:
                    # The cell keeps its place in line; its snapshot
                    # (if the signal caught it mid-run) makes the
                    # requeue a migration, not a restart.
                    task.state = "queued"
                    heapq.heappush(self.queue, (task.sort_key, key))
                    self.on_event(
                        task, worker, "cell_preempted",
                        snapshot_cycle=task.snapshot_cycle,
                    )
                else:
                    task.attempts += 1
                    if task.attempts >= MAX_ATTEMPTS:
                        self._fail(
                            task,
                            f"worker exited {returncode} "
                            f"(attempt {task.attempts})",
                        )
                    else:
                        task.state = "queued"
                        heapq.heappush(self.queue, (task.sort_key, key))
        respawn = not self.draining and not worker.draining
        if respawn and not worker.ready:
            self._unready_exits += 1
            if self._unready_exits == MAX_ATTEMPTS:
                self._spawn_error = (
                    f"worker exited {returncode} before it was ready "
                    f"({self._unready_exits} times in a row)"
                )
        if respawn and self._spawn_error is None:
            await self._spawn_worker()
        await self.dispatch()

    def _close_span(self, worker: PoolWorker) -> None:
        if worker.current is not None:
            self._spans.append((worker.dispatched_at, time.monotonic()))
            worker.current = None

    def _fail(self, task: PoolTask, error: str) -> None:
        task.state = "failed"
        self.on_failed(task, error)

    # ------------------------------------------------------------------
    # Dispatch and preemption
    # ------------------------------------------------------------------

    async def dispatch(self) -> None:
        """Hand queued cells to idle workers (zero-bubble core loop).

        A pool that stopped spawning and has no worker left fails
        every queued cell instead.
        """
        if self._spawn_error is not None and not self.workers:
            while self.queue:
                _, key = heapq.heappop(self.queue)
                task = self.tasks.get(key)
                if task is not None and task.state == "queued":
                    self._fail(task, self._spawn_error)
            return
        while self.queue and not self.draining:
            idle = [w for w in self.workers.values() if w.idle]
            if not idle:
                return
            worker = min(idle, key=lambda w: w.index)
            sort_key, key = heapq.heappop(self.queue)
            task = self.tasks.get(key)
            if task is None or task.state != "queued":
                continue  # stale heap entry
            task.state = "running"
            worker.current = key
            worker.dispatched_at = time.monotonic()
            self.on_event(
                task, worker, "cell_started", resuming=task.snapshot_cycle
            )
            await self._send_worker(worker, {
                "op": "run",
                "cell": task.spec.to_wire(),
                "checkpoint": self.checkpoint,
                "progress_every": self.progress_every,
            })

    def _busy(self) -> List[PoolWorker]:
        return [
            w for w in self.workers.values()
            if w.current is not None and not w.draining
        ]

    def preempt_lowest(self, incoming_priority: int) -> None:
        """Preempt the lowest-priority running cell, if it is beaten.

        Acts only when no worker is idle, so the higher-priority work
        starts now instead of after someone's tail.  Prefers ``sim``
        cells (their snapshot preserves the work).
        """
        busy = self._busy()
        if not busy or any(w.idle for w in self.workers.values()):
            return

        def victim_rank(w: PoolWorker):
            task = self.tasks[w.current]
            # Highest sort_key = lowest priority / newest job; prefer
            # preemptible (sim) cells among equals.
            return (task.sort_key, task.spec.preemptible)

        worker = max(busy, key=victim_rank)
        if -self.tasks[worker.current].sort_key[0] < incoming_priority:
            worker.proc.terminate()

    def preempt_oldest(self, respawn: bool) -> Optional[PoolWorker]:
        """SIGTERM the worker whose cell started first, if any is busy;
        ``respawn=False`` drains its slot for good (the pool shrinks)."""
        busy = self._busy()
        if not busy:
            return None
        worker = min(busy, key=lambda w: w.dispatched_at)
        worker.draining = not respawn
        worker.proc.terminate()
        return worker

    def bubble_fraction(
        self, start: Optional[float], end: float
    ) -> Optional[float]:
        """Idle worker-seconds over pool × window, for one window."""
        if start is None or end <= start:
            return None  # fully cache-served: no window, no bubbles
        spans = list(self._spans)
        for worker in self.workers.values():
            if worker.current is not None:
                spans.append((worker.dispatched_at, end))
        busy = sum(
            max(0.0, min(s1, end) - max(s0, start)) for s0, s1 in spans
        )
        pool = max(1, len(self.workers)) * (end - start)
        return max(0.0, 1.0 - busy / pool)


__all__ = [
    "MAX_ATTEMPTS",
    "PREEMPT_EXIT_CODES",
    "PoolTask",
    "PoolWorker",
    "WorkerPool",
]
