"""The stdlib-asyncio job server (``repro-serve start``).

One process owns the result cache, a :class:`~repro.service.pool.WorkerPool`
and a Unix-domain socket.  Clients speak newline-delimited JSON: one
request object per line, one reply object per line, plus a stream of
event lines for ``watch``.  See DESIGN.md §15 for the protocol.

The pool runs the cells; the server dedupes them first.  A submitted
cell is served from server memory if some job already computed it,
from the content-addressed ``.repro-cache/`` store if any *past
process* did, or attached to an in-flight task if another job is
already computing it.  Only genuinely novel cells reach the pool.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.errors import ReproError, ServiceError
from repro.experiments import runner
from repro.service.jobs import expand_submission, int_param, result_digest
from repro.service.pool import PoolTask, PoolWorker, WorkerPool
from repro.settings import settings

#: Default progress-event cadence, in memory cycles.
PROGRESS_EVERY = 200_000


@dataclass
class _Job:
    """One submission and everything needed to summarise it."""

    job_id: str
    seq: int
    priority: int
    cells: Dict[str, runner.Cell]   # key -> cell, in expansion order
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


class JobServer:
    """Owns the socket, the job state and the result cache traffic."""

    def __init__(
        self,
        socket_path: str,
        workers: int = 2,
        progress_every: int = PROGRESS_EVERY,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"need at least one worker, got {workers}")
        self.socket_path = str(socket_path)
        # Every cell checkpoints, so a preempted one migrates.
        self.settings = replace(settings(), checkpoint=True)
        self._pool = WorkerPool(
            workers,
            on_done=self._on_cell_done,
            on_failed=self._on_cell_failed,
            on_event=self._cell_event,
            settings=self.settings,
            progress_every=progress_every,
        )
        self._jobs: Dict[str, _Job] = {}
        self._subscribers: Dict[str, Set[str]] = {}  # key -> job ids
        self._digests: Dict[str, str] = {}    # key -> result digest
        self._job_seq = 0
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
        await self._pool.start()

    async def serve(self) -> None:
        """``start()`` then run until a ``shutdown`` request lands."""
        await self.start()
        try:
            await self._stopped.wait()
        finally:
            await self._pool.shutdown()
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            try:
                Path(self.socket_path).unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Pool callbacks
    # ------------------------------------------------------------------

    def _cell_event(
        self, task: PoolTask, worker: Optional[PoolWorker], event: str, **fields
    ) -> Set[str]:
        """Emit ``event`` to every job subscribed to ``task``; return them."""
        jobs = self._subscribers[task.key]
        for job_id in jobs:
            job = self._jobs[job_id]
            if event == "cell_started" and job.window_start is None:
                job.window_start = worker.started_at
            elif event == "cell_preempted":
                job.preemptions += 1
        if worker is not None:
            fields["worker"] = worker.index
        self._emit_job_event(jobs, dict(
            event=event, key=task.key, cell=task.label, **fields
        ))
        return jobs

    def _on_cell_done(
        self, task: PoolTask, worker: PoolWorker, event: dict
    ) -> None:
        key = task.key
        if self.settings.cache:
            runner.cache_store(key, task.cell, event["stats"], event["core"])
        digest = self._keep(key, event["stats"], event["core"])
        resumed_cycle = event.get("resumed_cycle")
        for job_id in sorted(self._cell_event(
            task, worker, "cell_done", digest=digest,
            resumed_cycle=resumed_cycle, wall=event.get("wall"),
        )):
            job = self._jobs[job_id]
            if key in job.pending:
                job.pending.discard(key)
                job.simulated += 1
                job.mem_cycles += int(event.get("mem_cycles") or 0)
                job.completion_order.append(key)
                job.digests[key] = digest
                if resumed_cycle:
                    job.resumed[key] = resumed_cycle
                self._maybe_finish_job(job)

    def _on_cell_failed(self, task: PoolTask, error: str) -> None:
        key = task.key
        for job_id in sorted(self._cell_event(task, None, "cell_failed", error=error)):
            job = self._jobs[job_id]
            if key in job.pending:
                job.pending.discard(key)
                job.failed += 1
                job.errors[key] = error
                self._maybe_finish_job(job)

    def _keep(self, key: str, stats: dict, core: dict) -> str:
        """Remember a finished cell's result digest and return it."""
        digest = result_digest({"stats": stats, "core": core, "key": key})
        self._digests.setdefault(key, digest)
        return digest

    def _cached_digest(self, key: str) -> Optional[str]:
        """Digest of a result held in server memory or the disk store."""
        if key in self._digests:
            # Memory hit: some earlier job already computed it.
            return self._digests[key]
        if self.settings.cache:
            loaded = runner.cache_load(key)
            if loaded is not None:
                # Disk hit: a past process computed it.  Round-trip
                # through from_dict/to_dict is lossless, so the digest
                # matches what a fresh simulation would produce.
                stats, core = loaded
                return self._keep(key, stats.to_dict(), core.to_dict())
        return None

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
        bubble = self._pool.bubble_fraction(job.window_start, now)
        cells = len(job.cells)
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
            "settings": self.settings.to_wire(),
        }

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def _submit(self, request: dict) -> _Job:
        cells = expand_submission(request)
        priority = int_param(request, "priority", 0)
        self._job_seq += 1
        job = _Job(
            job_id=f"job-{self._job_seq}",
            seq=self._job_seq,
            priority=priority,
            cells=cells,
            submitted=time.monotonic(),
        )
        self._jobs[job.job_id] = job
        queued = 0
        for index, (key, cell) in enumerate(cells.items()):
            digest = self._cached_digest(key)
            if digest is not None:
                job.cached += 1
                job.completion_order.append(key)
                job.digests[key] = digest
                continue
            task = self._pool.tasks.get(key)
            if task is not None and task.state in ("queued", "sent", "running"):
                # Another job is already computing it: attach.
                self._subscribers[key].add(job.job_id)
                job.shared += 1
                job.pending.add(key)
                continue
            self._subscribers[key] = {job.job_id}
            self._pool.submit(key, cell, (-priority, job.seq, index))
            job.pending.add(key)
            queued += 1
        self._emit_job_event({job.job_id}, {
            "event": "job_submitted",
            "cells": len(cells),
            "cached": job.cached,
            "shared": job.shared,
            "queued": queued,
            "priority": priority,
        })
        # Priority preemption: if this job outranks running work and
        # no worker is idle, evict the lowest-priority running cell.
        if queued:
            self._pool.preempt_lowest(priority)
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
                    "workers": len(self._pool.workers),
                    "jobs": len(self._jobs),
                    "queued": len(self._pool.queue),
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
            elif op == "preempt":
                await self._op_preempt(request, writer)
            elif op == "shutdown":
                self._pool.draining = True
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
        if self._pool.draining:
            raise ServiceError("server is draining; not accepting jobs")
        job = self._submit(request)
        await self._pool.dispatch()
        reply = {
            "ok": True,
            "job": job.job_id,
            "cells": len(job.cells),
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
            "draining": self._pool.draining,
            "queued": len(self._pool.queue),
            "workers": [
                {
                    "index": w.index,
                    "pid": w.proc.pid,
                    "idle": w.idle,
                    "current": (
                        self._pool.tasks[w.current].label
                        if w.current else None
                    ),
                }
                for w in sorted(
                    self._pool.workers.values(), key=lambda w: w.index
                )
            ],
            "jobs": {
                job.job_id: {
                    "done": job.done.is_set(),
                    "cells": len(job.cells),
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
        """SIGTERM the longest-running worker (drain simulation / tests)."""
        worker = self._pool.preempt_oldest(
            respawn=request.get("respawn") is not False
        )
        if worker is None:
            raise ServiceError("no busy worker to preempt")
        await self._reply(writer, {
            "ok": True,
            "worker": worker.index,
            "key": worker.current,
            "cell": self._pool.tasks[worker.current].label,
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
    "PROGRESS_EVERY",
    "JobServer",
    "run_server",
]
