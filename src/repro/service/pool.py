"""The cell worker pool: the one place simulator subprocesses start.

A :class:`WorkerPool` keeps ``size`` long-lived
``python -m repro.service.workers`` processes busy over that module's
ND-JSON pipes.  It owns the priority queue and dispatch, crash retry
(``MAX_ATTEMPTS``), SIGTERM preemption and the busy spans behind
``bubble_fraction``, and reports each cell's fate through callbacks.
The job server and ``run_cells`` with ``jobs > 1`` drive it inside
their own event loops.

Cells are independent, so dispatch is "a worker with room takes the
head of the queue", and it is pipelined: a worker holds the cell it
runs plus at most one *prefetched* cell, sent while the current one
runs, so the worker starts its next cell the moment it reports the
last one instead of waiting for the pool to read, store and announce
it.  A prefetched cell has not started, so the pool may take it back
(``recall``): when a queued cell outranks it, and when another worker
goes idle with nothing queued.  A preempted cell (SIGTERM → snapshot
at a loop boundary → exit 143) re-enters the queue *with its progress*
and resumes byte-identically on whichever worker frees up next; a
dead worker's unstarted cells re-enter it as they were (DESIGN.md §15).
"""

from __future__ import annotations

import asyncio
import heapq
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

import repro
from repro.settings import Settings, settings as current_settings

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

#: Cells a worker holds at most: the running one and one prefetched.
_HOLD = 2


@dataclass
class PoolTask:
    """One unique cell in the pool's queue."""

    spec: CellSpec
    sort_key: Tuple[int, int, int]  # (-priority, job_seq, index)
    state: str = "queued"           # queued | sent | running | done | failed
    attempts: int = 0
    snapshot_cycle: Optional[int] = None


@dataclass
class PoolWorker:
    """One worker subprocess slot."""

    index: int
    proc: asyncio.subprocess.Process
    reader: Optional[asyncio.Future] = None
    current: Optional[str] = None   # key of the cell it reported started
    started_at: float = 0.0         # when ``current`` started
    sent: List[str] = field(default_factory=list)  # unstarted, in order
    recalling: Set[str] = field(default_factory=set)  # recall sent, unanswered
    ready: bool = False
    stopping: bool = False          # SIGTERM'd: send it nothing more
    draining: bool = False          # do not respawn on exit

    @property
    def idle(self) -> bool:
        return self.ready and self.load == 0 and not self.recalling

    @property
    def load(self) -> int:
        """Cells it will run, unless one is recalled in time."""
        return (self.current is not None) + len(self.sent)

    def prefetched(self) -> List[str]:
        """Its unstarted cells queued behind another of its cells."""
        return self.sent if self.current is not None else self.sent[1:]


class WorkerPool:
    """Worker subprocesses, the priority queue and every cell's fate.

    Callbacks: ``on_done(task, worker, event)`` with the worker's
    ``done`` event, ``on_failed(task, error)``, and optionally
    ``on_event(task, worker, name, **fields)`` for ``cell_started``
    (``resuming``), ``cell_progress`` (``cycle``) and ``cell_preempted``
    (``snapshot_cycle``).  ``settings`` (default: the settings in force
    when the pool is built) and ``progress_every`` ride along on every
    run request; workers parse no environment.
    """

    def __init__(
        self,
        size: int,
        on_done: Callable,
        on_failed: Callable,
        on_event: Optional[Callable] = None,
        settings: Optional[Settings] = None,
        progress_every: Optional[int] = None,
    ) -> None:
        self.size = size
        self.on_done = on_done
        self.on_failed = on_failed
        self.on_event = on_event or (lambda *args, **fields: None)
        self.settings = current_settings() if settings is None else settings
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
        """Queue one cell; :meth:`dispatch` sends it."""
        task = self.tasks[spec.key] = PoolTask(spec=spec, sort_key=sort_key)
        self._requeue(task)

    async def shutdown(self) -> None:
        """Stop dispatching; let idle workers exit, SIGTERM busy ones."""
        self.draining = True
        while self.workers:  # again if a respawn was already under way
            workers = list(self.workers.values())
            for worker in workers:
                worker.draining = True
                if worker.load == 0 and not worker.recalling:
                    await self._send_worker(worker, {"op": "exit"})
                else:
                    self._terminate(worker)
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
        # Settings travel on the wire, never as REPRO_* variables.
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        src = str(Path(repro.__file__).resolve().parents[1])
        extra = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + extra if extra else "")
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

    def _terminate(self, worker: PoolWorker) -> None:
        worker.stopping = True
        worker.proc.terminate()

    async def _read_worker(self, worker: PoolWorker) -> None:
        """Consume one worker's event stream until it exits."""
        assert worker.proc.stdout is not None
        buffer = b""
        while True:
            data = await worker.proc.stdout.read(1 << 16)
            if not data:
                break
            # Lines that arrive together share one arrival time, so a
            # ``started`` does not wait on the handling of the ``done``
            # before it to open its span.
            now = time.monotonic()
            *lines, buffer = (buffer + data).split(b"\n")
            for line in lines:
                try:
                    event = json.loads(line)
                except ValueError:
                    continue
                self._on_worker_event(worker, event, now)
            await self.dispatch()
        returncode = await worker.proc.wait()
        await self._on_worker_exit(worker, returncode)

    def _on_worker_event(
        self, worker: PoolWorker, event: dict, now: float
    ) -> None:
        kind = event.get("event")
        if kind == "ready":
            worker.ready = True
            self._unready_exits = 0
            return
        if kind in ("done", "failed"):
            self._close_span(worker, now)
        key = event.get("key") or ""
        task = self.tasks.get(key)
        if task is None:
            return
        if kind in ("started", "recalled"):
            if key in worker.sent:
                worker.sent.remove(key)
            worker.recalling.discard(key)
        if kind == "started":
            task.state = "running"
            worker.current = key
            worker.started_at = now
            self.on_event(
                task, worker, "cell_started", resuming=task.snapshot_cycle
            )
        elif kind == "recalled":
            self._requeue(task)
        elif kind == "progress":
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
        for key in worker.sent + list(worker.recalling):
            # Never started: back in line as it was, no attempt spent.
            self._requeue(self.tasks[key])
        worker.sent.clear()
        worker.recalling.clear()
        key = worker.current
        if key is not None:
            self._close_span(worker, time.monotonic())
            task = self.tasks.get(key)
            if task is not None and task.state == "running":
                if returncode in PREEMPT_EXIT_CODES:
                    # The cell keeps its place in line; its snapshot
                    # (if the signal caught it mid-run) makes the
                    # requeue a migration, not a restart.
                    self._requeue(task)
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
                        self._requeue(task)
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

    def _close_span(self, worker: PoolWorker, now: float) -> None:
        if worker.current is not None:
            self._spans.append((worker.started_at, now))
            worker.current = None

    def _requeue(self, task: PoolTask) -> None:
        task.state = "queued"
        heapq.heappush(self.queue, (task.sort_key, task.spec.key))

    def _fail(self, task: PoolTask, error: str) -> None:
        task.state = "failed"
        self.on_failed(task, error)

    # ------------------------------------------------------------------
    # Dispatch, recall and preemption
    # ------------------------------------------------------------------

    async def dispatch(self) -> None:
        """Send queued cells to workers with room, best cell first.

        The emptiest worker takes the head, so every worker runs a cell
        before any holds a prefetched one.  When no worker has room, a
        head that outranks a prefetched cell recalls it; with nothing
        queued, each idle worker recalls a prefetched cell so a job's
        last cells are not stranded behind a running one.  A pool that
        stopped spawning and has no worker left fails every queued
        cell instead.
        """
        if self._spawn_error is not None and not self.workers:
            while self.queue:
                _, key = heapq.heappop(self.queue)
                task = self.tasks.get(key)
                if task is not None and task.state == "queued":
                    self._fail(task, self._spawn_error)
            return
        while self.queue and not self.draining:
            sort_key, key = self.queue[0]
            task = self.tasks.get(key)
            if task is None or task.state != "queued":
                heapq.heappop(self.queue)
                continue  # stale heap entry
            room = [
                w for w in self._live()
                if w.ready and w.load < _HOLD and self._may_wait_on(w, task)
            ]
            if room:
                heapq.heappop(self.queue)
                worker = min(room, key=lambda w: (w.load, w.index))
                task.state = "sent"
                worker.sent.append(key)
                await self._send_worker(worker, {
                    "op": "run",
                    "cell": task.spec.to_wire(),
                    "settings": self.settings.to_wire(),
                    "progress_every": self.progress_every,
                })
                continue
            prefetched = self._prefetched()
            if not prefetched or prefetched[-1][0] <= sort_key:
                return
            await self._recall(*prefetched[-1][1:])  # the worst one
        while not self.queue and not self.draining:
            live = self._live()
            idle = sum(w.idle for w in live)
            prefetched = self._prefetched()
            if not prefetched or idle <= sum(len(w.recalling) for w in live):
                return
            await self._recall(*prefetched[0][1:])  # the best one

    def _may_wait_on(self, worker: PoolWorker, task: PoolTask) -> bool:
        """Whether ``task`` may queue behind ``worker``'s cells: none of
        them has a lower priority (preemption evicts those instead)."""
        ahead = list(worker.sent)
        if worker.current is not None:
            ahead.append(worker.current)
        return all(
            self.tasks[key].sort_key[0] <= task.sort_key[0] for key in ahead
        )

    def _live(self) -> List[PoolWorker]:
        return [w for w in self.workers.values() if not w.stopping]

    def _prefetched(self) -> List[Tuple[Tuple[int, int, int], str, PoolWorker]]:
        """Every live worker's prefetched cells, best first."""
        return sorted(
            (self.tasks[key].sort_key, key, worker)
            for worker in self._live()
            for key in worker.prefetched()
        )

    async def _recall(self, key: str, worker: PoolWorker) -> None:
        # The worker answers ``recalled`` (the cell is requeued then)
        # or, if the cell started first, only ``started``.
        worker.sent.remove(key)
        worker.recalling.add(key)
        await self._send_worker(worker, {"op": "recall", "key": key})

    def _busy(self) -> List[PoolWorker]:
        return [
            w for w in self.workers.values()
            if w.current is not None and not w.stopping
        ]

    def preempt_lowest(self, incoming_priority: int) -> None:
        """Preempt the lowest-priority running cell, if it is beaten.

        Acts only when no worker is idle, so the higher-priority work
        starts now instead of after someone's tail.  The victim's
        snapshot preserves its work.
        """
        busy = self._busy()
        if not busy or any(w.idle for w in self.workers.values()):
            return
        # Highest sort_key = lowest priority / newest job.
        worker = max(busy, key=lambda w: self.tasks[w.current].sort_key)
        if -self.tasks[worker.current].sort_key[0] < incoming_priority:
            self._terminate(worker)

    def preempt_oldest(self, respawn: bool) -> Optional[PoolWorker]:
        """SIGTERM the worker whose cell started first, if any is busy;
        ``respawn=False`` drains its slot for good (the pool shrinks)."""
        busy = self._busy()
        if not busy:
            return None
        worker = min(busy, key=lambda w: w.started_at)
        worker.draining = not respawn
        self._terminate(worker)
        return worker

    def bubble_fraction(
        self, start: Optional[float], end: float
    ) -> Optional[float]:
        """Idle worker-seconds over pool × window, for one window.

        A worker is busy from its ``started`` to its ``done`` or
        ``failed`` (or its exit), as the pool received them.
        """
        if start is None or end <= start:
            return None  # fully cache-served: no window, no bubbles
        spans = list(self._spans)
        for worker in self.workers.values():
            if worker.current is not None:
                spans.append((worker.started_at, end))
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
