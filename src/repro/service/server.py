"""The stdlib-asyncio job server (``repro-serve start``).

One process owns the result cache, a pool of worker subprocesses and a
Unix-domain socket.  Clients speak newline-delimited JSON: one request
object per line, one reply object per line, plus a stream of event
lines for ``watch``.  See DESIGN.md §15 for the protocol.

Scheduling is zero-bubble by construction: every queued cell is
independent, so the only scheduling decision is "hand the next cell to
the first idle worker".  Bubbles can then come from exactly two
places — a drained worker holding a half-finished long cell hostage,
and a tail where fewer cells remain than workers — and the preemption
machinery addresses the first: SIGTERM → snapshot at a loop boundary →
exit 143 → the cell re-enters the queue *with its progress* and
resumes byte-identically on whichever worker frees up next.  The
``bubble_fraction`` each job reports (idle worker-seconds over
pool × window) is the measured residue.

Dedupe happens before any of that: a submitted cell is served from
server memory if some job already computed it, from the
content-addressed ``.repro-cache/`` store if any *past process* did,
or attached to an in-flight task if another job is already computing
it.  Only genuinely novel cells reach the queue.
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
from typing import Dict, List, Optional, Set, Tuple

import repro
from repro.analysis.export import cell_record, filter_records
from repro.cpu.core import CoreResult
from repro.errors import ReproError, ServiceError
from repro.experiments import runner
from repro.service.jobs import (
    CellSpec,
    canonical_json,
    expand_submission,
    int_param,
    result_digest,
    sim_cell_from_wire,
)
from repro.sim.stats import SimStats

#: Exit code the checkpoint machinery uses for "preempted, snapshot
#: saved" (128 + SIGTERM).  ``-15`` is the same fate seen through
#: ``Process.returncode`` when the signal lands while no cell is
#: running (no handler installed): also not a crash.
PREEMPT_EXIT_CODES = (143, -15)

#: Give up on a cell after this many *crashes* (preemptions are free).
MAX_ATTEMPTS = 3

#: Default progress-event cadence, in memory cycles.
PROGRESS_EVERY = 200_000


@dataclass
class _Task:
    """One unique cell, shared by every job that submitted it."""

    spec: CellSpec
    sort_key: Tuple[int, int, int]  # (-priority, job_seq, index)
    jobs: Set[str] = field(default_factory=set)
    state: str = "queued"           # queued | running | done | failed
    attempts: int = 0
    snapshot_cycle: Optional[int] = None


@dataclass
class _Job:
    """One submission and everything needed to summarise it."""

    job_id: str
    seq: int
    priority: int
    specs: List[CellSpec]
    pending: Set[str] = field(default_factory=set)
    cached: int = 0
    shared: int = 0
    simulated: int = 0
    failed: int = 0
    preemptions: int = 0
    mem_cycles: int = 0             # simulated (non-cached) cycles only
    submitted: float = 0.0
    window_start: Optional[float] = None
    completion_order: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    resumed: Dict[str, int] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)
    events: List[dict] = field(default_factory=list)
    watchers: List[asyncio.StreamWriter] = field(default_factory=list)
    done: asyncio.Event = field(default_factory=asyncio.Event)
    summary: Optional[dict] = None


@dataclass
class _Worker:
    """One worker subprocess slot."""

    index: int
    proc: asyncio.subprocess.Process
    current: Optional[str] = None   # key of the in-flight cell
    dispatched_at: float = 0.0
    ready: bool = False
    draining: bool = False          # do not respawn on exit

    @property
    def idle(self) -> bool:
        return self.ready and self.current is None


class JobServer:
    """Owns the socket, the worker pool and all job state."""

    def __init__(
        self,
        socket_path: str,
        workers: int = 2,
        progress_every: int = PROGRESS_EVERY,
        cache: Optional[bool] = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"need at least one worker, got {workers}")
        self.socket_path = str(socket_path)
        self.pool_size = workers
        self.progress_every = progress_every
        self.cache = runner.cache_enabled() if cache is None else cache
        self._jobs: Dict[str, _Job] = {}
        self._tasks: Dict[str, _Task] = {}
        self._queue: List[Tuple[Tuple[int, int, int], str]] = []  # heap
        self._workers: Dict[int, _Worker] = {}
        self._results: Dict[str, dict] = {}   # key -> digest payload
        self._records: Dict[str, dict] = {}   # key -> query record
        self._spans: List[Tuple[float, float]] = []  # closed busy spans
        self._job_seq = 0
        self._worker_seq = 0
        self._draining = False
        self._stopped = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and spawn the worker pool."""
        path = Path(self.socket_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            path.unlink()
        self._server = await asyncio.start_unix_server(
            self._handle_client, path=self.socket_path
        )
        for _ in range(self.pool_size):
            await self._spawn_worker()

    async def serve(self) -> None:
        """``start()`` then run until a ``shutdown`` request lands."""
        await self.start()
        try:
            await self._stopped.wait()
        finally:
            await self._shutdown_workers()
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            try:
                Path(self.socket_path).unlink()
            except OSError:
                pass

    async def _shutdown_workers(self) -> None:
        for worker in list(self._workers.values()):
            worker.draining = True
            if worker.current is None:
                await self._send_worker(worker, {"op": "exit"})
            else:
                worker.proc.terminate()
        for worker in list(self._workers.values()):
            try:
                await asyncio.wait_for(worker.proc.wait(), timeout=30)
            except asyncio.TimeoutError:
                worker.proc.kill()

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------

    async def _spawn_worker(self) -> _Worker:
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
        worker = _Worker(index=self._worker_seq, proc=proc)
        self._workers[worker.index] = worker
        asyncio.ensure_future(self._read_worker(worker))
        return worker

    async def _send_worker(self, worker: _Worker, payload: dict) -> None:
        assert worker.proc.stdin is not None
        worker.proc.stdin.write(
            (json.dumps(payload) + "\n").encode("utf-8")
        )
        try:
            await worker.proc.stdin.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # exit path handles the dead worker

    async def _read_worker(self, worker: _Worker) -> None:
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
            await self._dispatch()
        returncode = await worker.proc.wait()
        await self._on_worker_exit(worker, returncode)

    def _on_worker_event(self, worker: _Worker, event: dict) -> None:
        kind = event.get("event")
        if kind == "ready":
            worker.ready = True
        elif kind == "progress":
            task = self._tasks.get(event.get("key", ""))
            if task is not None:
                self._emit_job_event(task.jobs, {
                    "event": "cell_progress",
                    "key": event["key"],
                    "cell": task.spec.label,
                    "cycle": event.get("cycle"),
                    "worker": worker.index,
                })
        elif kind == "snapshot":
            task = self._tasks.get(event.get("key", ""))
            if task is not None:
                task.snapshot_cycle = event.get("cycle")
        elif kind == "done":
            self._on_cell_done(worker, event)
        elif kind == "failed":
            self._on_cell_failed(worker, event)

    async def _on_worker_exit(self, worker: _Worker, returncode: int) -> None:
        """EOF on a worker: preemption, crash, or orderly drain."""
        self._workers.pop(worker.index, None)
        key = worker.current
        if key is not None:
            self._close_span(worker)
            task = self._tasks.get(key)
            if task is not None and task.state == "running":
                if returncode in PREEMPT_EXIT_CODES:
                    # The cell keeps its place in line; its snapshot
                    # (if the signal caught it mid-run) makes the
                    # requeue a migration, not a restart.
                    task.state = "queued"
                    heapq.heappush(self._queue, (task.sort_key, key))
                    for job_id in task.jobs:
                        self._jobs[job_id].preemptions += 1
                    self._emit_job_event(task.jobs, {
                        "event": "cell_preempted",
                        "key": key,
                        "cell": task.spec.label,
                        "worker": worker.index,
                        "snapshot_cycle": task.snapshot_cycle,
                    })
                else:
                    task.attempts += 1
                    if task.attempts >= MAX_ATTEMPTS:
                        self._fail_task(
                            task,
                            f"worker exited {returncode} "
                            f"(attempt {task.attempts})",
                        )
                    else:
                        task.state = "queued"
                        heapq.heappush(self._queue, (task.sort_key, key))
        if not self._draining and not worker.draining:
            await self._spawn_worker()
        await self._dispatch()

    def _close_span(self, worker: _Worker) -> None:
        if worker.current is not None:
            self._spans.append((worker.dispatched_at, time.monotonic()))
            worker.current = None

    # ------------------------------------------------------------------
    # Cell completion
    # ------------------------------------------------------------------

    def _on_cell_done(self, worker: _Worker, event: dict) -> None:
        key = event.get("key", "")
        self._close_span(worker)
        task = self._tasks.get(key)
        if task is None or task.state == "done":
            return
        task.state = "done"
        spec = task.spec
        if spec.kind == "sim":
            payload = {
                "key": key,
                "stats": event["stats"],
                "core": event["core"],
            }
            record = cell_record(
                sim_cell_from_wire(spec.to_wire()),
                SimStats.from_dict(event["stats"]),
                CoreResult.from_dict(event["core"]),
            )
            if self.cache:
                runner.cache_store_dicts(
                    key,
                    sim_cell_from_wire(spec.to_wire()),
                    event["stats"],
                    event["core"],
                )
        else:
            payload = {"key": key, "metrics": event["metrics"]}
            record = {
                "scenario": spec.payload["scenario"],
                "mechanism": spec.payload["mechanism"],
                "seed": spec.payload["seed"],
            }
            metrics = event["metrics"]
            record.update({
                name: metrics[name]
                for name in (
                    "cycles",
                    "weighted_speedup",
                    "max_slowdown",
                    "jain_index",
                )
                if name in metrics
            })
        self._finish_key(
            key,
            payload,
            record,
            mem_cycles=int(event.get("mem_cycles") or 0),
            resumed_cycle=event.get("resumed_cycle"),
            wall=event.get("wall"),
            worker=worker.index,
        )

    def _on_cell_failed(self, worker: _Worker, event: dict) -> None:
        self._close_span(worker)
        task = self._tasks.get(event.get("key", ""))
        if task is not None and task.state == "running":
            self._fail_task(task, event.get("error", "unknown error"))

    def _fail_task(self, task: _Task, error: str) -> None:
        task.state = "failed"
        key = task.spec.key
        self._emit_job_event(task.jobs, {
            "event": "cell_failed",
            "key": key,
            "cell": task.spec.label,
            "error": error,
        })
        for job_id in sorted(task.jobs):
            job = self._jobs[job_id]
            if key in job.pending:
                job.pending.discard(key)
                job.failed += 1
                job.errors[key] = error
                self._maybe_finish_job(job)

    def _finish_key(
        self,
        key: str,
        payload: dict,
        record: dict,
        mem_cycles: int = 0,
        resumed_cycle: Optional[int] = None,
        wall: Optional[float] = None,
        worker: Optional[int] = None,
    ) -> None:
        """A cell's result exists now; settle every job waiting on it."""
        digest = result_digest(payload)
        self._results[key] = payload
        self._records.setdefault(key, dict(record, digest=digest))
        task = self._tasks.get(key)
        jobs = sorted(task.jobs) if task is not None else []
        self._emit_job_event(set(jobs), {
            "event": "cell_done",
            "key": key,
            "cell": task.spec.label if task is not None else key,
            "digest": digest,
            "resumed_cycle": resumed_cycle,
            "wall": wall,
            "worker": worker,
        })
        for job_id in jobs:
            job = self._jobs[job_id]
            if key in job.pending:
                job.pending.discard(key)
                job.simulated += 1
                job.mem_cycles += mem_cycles
                job.completion_order.append(key)
                job.digests[key] = digest
                if resumed_cycle:
                    job.resumed[key] = resumed_cycle
                self._maybe_finish_job(job)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def _dispatch(self) -> None:
        """Hand queued cells to idle workers (zero-bubble core loop)."""
        while self._queue:
            idle = [w for w in self._workers.values() if w.idle]
            if not idle:
                return
            worker = min(idle, key=lambda w: w.index)
            sort_key, key = heapq.heappop(self._queue)
            task = self._tasks.get(key)
            if task is None or task.state != "queued":
                continue  # stale heap entry
            task.state = "running"
            worker.current = key
            worker.dispatched_at = time.monotonic()
            for job_id in task.jobs:
                job = self._jobs[job_id]
                if job.window_start is None:
                    job.window_start = worker.dispatched_at
            self._emit_job_event(task.jobs, {
                "event": "cell_started",
                "key": key,
                "cell": task.spec.label,
                "worker": worker.index,
                "resuming": task.snapshot_cycle,
            })
            await self._send_worker(worker, {
                "op": "run",
                "cell": task.spec.to_wire(),
                "progress_every": self.progress_every,
            })

    def _preempt_lowest(self, incoming_priority: int) -> Optional[int]:
        """Preempt the lowest-priority running cell, if it is beaten.

        Called when higher-priority work arrives and no worker is
        idle.  Prefers ``sim`` cells (their snapshot preserves the
        work); returns the preempted worker index or ``None``.
        """
        busy = [
            w for w in self._workers.values()
            if w.current is not None and not w.draining
        ]
        if not busy:
            return None

        def victim_rank(w: _Worker):
            task = self._tasks[w.current]
            # Highest sort_key = lowest priority / newest job; prefer
            # preemptible (sim) cells among equals.
            return (task.sort_key, task.spec.preemptible)

        worker = max(busy, key=victim_rank)
        task = self._tasks[worker.current]
        if -task.sort_key[0] >= incoming_priority:
            return None  # nothing running is lower priority
        worker.proc.terminate()
        return worker.index

    # ------------------------------------------------------------------
    # Job bookkeeping
    # ------------------------------------------------------------------

    def _emit_job_event(self, job_ids: Set[str], event: dict) -> None:
        for job_id in sorted(job_ids):
            job = self._jobs.get(job_id)
            if job is None:
                continue
            tagged = dict(event, job=job_id)
            job.events.append(tagged)
            self._notify_watchers(job, tagged)

    def _notify_watchers(self, job: _Job, event: dict) -> None:
        line = (json.dumps(event) + "\n").encode("utf-8")
        alive = []
        for writer in job.watchers:
            try:
                writer.write(line)
                alive.append(writer)
            except (ConnectionResetError, BrokenPipeError):
                pass
        job.watchers = alive

    def _maybe_finish_job(self, job: _Job) -> None:
        if job.pending or job.done.is_set():
            return
        job.summary = self._summarise(job)
        self._emit_job_event({job.job_id}, dict(
            job.summary, event="job_done"
        ))
        job.done.set()

    def _summarise(self, job: _Job) -> dict:
        now = time.monotonic()
        elapsed = now - job.submitted
        window = (
            now - job.window_start if job.window_start is not None else 0.0
        )
        bubble = self._bubble_fraction(job.window_start, now)
        cells = len(job.specs)
        job_digest = result_digest(
            {key: job.digests[key] for key in sorted(job.digests)}
        )
        return {
            "job": job.job_id,
            "priority": job.priority,
            "cells": cells,
            "cached": job.cached,
            "shared": job.shared,
            "simulated": job.simulated,
            "failed": job.failed,
            "preemptions": job.preemptions,
            "elapsed": elapsed,
            "window": window,
            "cells_per_sec": (cells / elapsed) if elapsed > 0 else None,
            "events_per_sec": (
                job.mem_cycles / window if window > 0 else None
            ),
            "bubble_fraction": bubble,
            "completion_order": list(job.completion_order),
            "digests": dict(job.digests),
            "digest": job_digest,
            "resumed": dict(job.resumed),
            "errors": dict(job.errors),
        }

    def _bubble_fraction(
        self, start: Optional[float], end: float
    ) -> Optional[float]:
        """Idle worker-seconds over pool × window, for one job window."""
        if start is None or end <= start:
            return None  # fully cache-served: no window, no bubbles
        spans = list(self._spans)
        for worker in self._workers.values():
            if worker.current is not None:
                spans.append((worker.dispatched_at, end))
        busy = sum(
            max(0.0, min(s1, end) - max(s0, start)) for s0, s1 in spans
        )
        pool = max(1, len(self._workers)) * (end - start)
        return max(0.0, 1.0 - busy / pool)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def _submit(self, request: dict) -> _Job:
        specs = expand_submission(request)
        priority = int_param(request, "priority", 0)
        self._job_seq += 1
        job = _Job(
            job_id=f"job-{self._job_seq}",
            seq=self._job_seq,
            priority=priority,
            specs=specs,
            submitted=time.monotonic(),
        )
        self._jobs[job.job_id] = job
        queued = 0
        for index, spec in enumerate(specs):
            key = spec.key
            if key in self._results:
                # Memory hit: some earlier job already computed it.
                job.cached += 1
                job.completion_order.append(key)
                job.digests[key] = result_digest(self._results[key])
                continue
            if spec.kind == "sim" and self.cache:
                loaded = runner.cache_load(key)
                if loaded is not None:
                    # Disk hit: a past process computed it.  Round-trip
                    # through from_dict/to_dict is lossless, so the
                    # digest matches what a fresh simulation would
                    # produce.
                    stats, core = loaded
                    payload = {
                        "key": key,
                        "stats": stats.to_dict(),
                        "core": core.to_dict(),
                    }
                    record = cell_record(
                        sim_cell_from_wire(spec.to_wire()), stats, core
                    )
                    self._results[key] = payload
                    self._records.setdefault(
                        key, dict(record, digest=result_digest(payload))
                    )
                    job.cached += 1
                    job.completion_order.append(key)
                    job.digests[key] = result_digest(payload)
                    continue
            task = self._tasks.get(key)
            if task is not None and task.state in ("queued", "running"):
                # Another job is already computing it: attach.
                task.jobs.add(job.job_id)
                job.shared += 1
                job.pending.add(key)
                continue
            task = _Task(
                spec=spec,
                sort_key=(-priority, job.seq, index),
                jobs={job.job_id},
            )
            self._tasks[key] = task
            job.pending.add(key)
            heapq.heappush(self._queue, (task.sort_key, key))
            queued += 1
        self._emit_job_event({job.job_id}, {
            "event": "job_submitted",
            "cells": len(specs),
            "cached": job.cached,
            "shared": job.shared,
            "queued": queued,
            "priority": priority,
        })
        # Priority preemption: if this job outranks running work and
        # no worker is idle, evict the lowest-priority running cell so
        # the urgent job starts now instead of after someone's tail.
        if queued and not any(w.idle for w in self._workers.values()):
            self._preempt_lowest(priority)
        self._maybe_finish_job(job)
        return job

    # ------------------------------------------------------------------
    # Client protocol
    # ------------------------------------------------------------------

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as error:
                await self._reply(
                    writer, {"ok": False, "error": f"bad request: {error}"}
                )
                return
            await self._handle_request(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
            except OSError:
                pass

    async def _reply(self, writer: asyncio.StreamWriter, payload: dict):
        writer.write((json.dumps(payload) + "\n").encode("utf-8"))
        await writer.drain()

    async def _handle_request(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        op = request.get("op")
        try:
            if op == "ping":
                await self._reply(writer, {
                    "ok": True,
                    "workers": len(self._workers),
                    "jobs": len(self._jobs),
                    "queued": len(self._queue),
                    "records": len(self._records),
                })
            elif op == "submit":
                await self._op_submit(request, writer)
            elif op == "wait":
                job = self._get_job(request)
                await job.done.wait()
                await self._reply(
                    writer, {"ok": True, "summary": job.summary}
                )
            elif op == "watch":
                await self._op_watch(request, writer)
            elif op == "status":
                await self._reply(writer, self._op_status())
            elif op == "query":
                records = filter_records(
                    self._records.values(),
                    benchmark=request.get("benchmark"),
                    mechanism=request.get("mechanism"),
                    generation=request.get("generation"),
                )
                await self._reply(
                    writer,
                    {"ok": True, "count": len(records), "records": records},
                )
            elif op == "preempt":
                await self._op_preempt(request, writer)
            elif op == "shutdown":
                self._draining = True
                await self._reply(writer, {"ok": True, "draining": True})
                self._stopped.set()
            else:
                raise ServiceError(f"unknown op {op!r}")
        except ReproError as error:
            # Any typed library error (a bad payload, an invalid
            # config) is the client's reply, never a dropped connection.
            await self._reply(writer, {"ok": False, "error": str(error)})

    async def _op_submit(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        if self._draining:
            raise ServiceError("server is draining; not accepting jobs")
        job = self._submit(request)
        await self._dispatch()
        reply = {
            "ok": True,
            "job": job.job_id,
            "cells": len(job.specs),
            "cached": job.cached,
            "shared": job.shared,
            "queued": len(job.pending) - job.shared,
        }
        if request.get("watch"):
            await self._reply(writer, dict(reply, watching=True))
            await self._stream_job(job, writer)
        elif request.get("wait"):
            await job.done.wait()
            await self._reply(writer, dict(reply, summary=job.summary))
        else:
            await self._reply(writer, reply)

    async def _op_watch(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        job = self._get_job(request)
        await self._reply(writer, {"ok": True, "watching": job.job_id})
        await self._stream_job(job, writer)

    async def _stream_job(
        self, job: _Job, writer: asyncio.StreamWriter
    ) -> None:
        """Replay a job's event history, then stream live to done."""
        for event in list(job.events):
            writer.write((json.dumps(event) + "\n").encode("utf-8"))
        await writer.drain()
        if job.done.is_set():
            return
        job.watchers.append(writer)
        await job.done.wait()
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    def _op_status(self) -> dict:
        return {
            "ok": True,
            "draining": self._draining,
            "queued": len(self._queue),
            "workers": [
                {
                    "index": w.index,
                    "pid": w.proc.pid,
                    "idle": w.idle,
                    "current": (
                        self._tasks[w.current].spec.label
                        if w.current else None
                    ),
                }
                for w in sorted(
                    self._workers.values(), key=lambda w: w.index
                )
            ],
            "jobs": {
                job.job_id: {
                    "done": job.done.is_set(),
                    "cells": len(job.specs),
                    "pending": len(job.pending),
                    "cached": job.cached,
                    "simulated": job.simulated,
                    "failed": job.failed,
                    "preemptions": job.preemptions,
                }
                for job in self._jobs.values()
            },
        }

    async def _op_preempt(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        """SIGTERM the busiest worker (drain simulation / tests).

        ``respawn: false`` drains the slot for good — the pool
        shrinks, modelling a worker being taken away rather than
        restarted.
        """
        busy = [
            w for w in self._workers.values()
            if w.current is not None and not w.draining
        ]
        if not busy:
            raise ServiceError("no busy worker to preempt")
        worker = min(busy, key=lambda w: w.dispatched_at)
        if request.get("respawn") is False:
            worker.draining = True
        task = self._tasks.get(worker.current)
        worker.proc.terminate()
        await self._reply(writer, {
            "ok": True,
            "worker": worker.index,
            "key": worker.current,
            "cell": task.spec.label if task is not None else None,
        })

    def _get_job(self, request: dict) -> _Job:
        job_id = request.get("job")
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return job


def run_server(
    socket_path: str,
    workers: int = 2,
    progress_every: int = PROGRESS_EVERY,
) -> None:
    """Blocking entry point used by ``repro-serve start``."""
    server = JobServer(
        socket_path, workers=workers, progress_every=progress_every
    )
    asyncio.run(server.serve())


__all__ = [
    "MAX_ATTEMPTS",
    "PREEMPT_EXIT_CODES",
    "PROGRESS_EVERY",
    "JobServer",
    "canonical_json",
    "run_server",
]
