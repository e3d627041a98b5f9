"""The service worker process: ``python -m repro.service.workers``.

One worker is one long-lived process running one runner cell, closed
or open loop (:func:`~repro.experiments.runner.execute_cell`), at a
time.  Its :class:`~repro.service.pool.WorkerPool` writes requests to
its stdin (one JSON object per line): ``run`` (its ``settings`` are
the :class:`~repro.settings.Settings` the cell runs under), ``recall``
(drop the named cell if it has not started) and ``exit``.  The pool
sends a worker its next cell while the current one runs, so the
worker starts it the moment it has reported the last one.  A thread
of its own reads stdin (:class:`_Inbox`), so a recall is honoured as
soon as it arrives, even while a cell runs: a cell is either dropped
(``recalled``) or already ``started``, never both.  Events go to
stdout (same framing, always flushed — stdout is a pipe, and a
buffered event is an invisible event):

* ``ready``                 — worker booted, willing to take a cell
* ``started``               — a cell began running
* ``recalled``              — a recalled cell was dropped unstarted
* ``progress``              — every ``progress_every`` memory cycles
* ``snapshot``              — a preemption snapshot was just written
* ``done``                  — cell finished; carries the full result
  (``core`` is ``null`` for an open-loop cell)
* ``failed``                — cell raised; carries the error text

Preemption is the checkpoint machinery (DESIGN.md §10) end to end: the pool
SIGTERMs the process, :class:`~repro.checkpoint.Checkpointer`'s
flag-only handler lets the run reach a clean loop boundary, the cell
snapshots to its content-addressed path under
``.repro-cache/checkpoints/``, the ``snapshot`` event is flushed, and
the process exits 143.  Whichever worker is handed the cell next finds
the snapshot (``execute_cell`` resumes it byte-identically) — the cell
*migrates* instead of restarting, which is what keeps a drained
worker's progress out of the schedule's bubbles.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import List, Optional

from repro.errors import ReproError
from repro.service.jobs import sim_cell_from_wire
from repro.settings import Settings, using


_EMIT_LOCK = threading.Lock()


def _emit(event: dict) -> None:
    with _EMIT_LOCK:  # the inbox thread emits ``recalled``
        sys.stdout.write(json.dumps(event) + "\n")
        sys.stdout.flush()


def _run(request: dict) -> None:
    """Execute one runner cell under the request's ``settings``."""
    from repro.experiments.runner import execute_cell

    spec = request["cell"]
    key = spec["key"]
    cell = sim_cell_from_wire(spec)
    progress_every: Optional[int] = request.get("progress_every")
    started = time.monotonic()

    def progress(driver) -> None:
        _emit({
            "event": "progress",
            "key": key,
            "cycle": driver.system.cycle,
        })

    def on_save(driver, preempting: bool) -> None:
        # Announce preemption snapshots only: the flush must land
        # before SystemExit(143) tears the process down, so the server
        # knows the requeued cell has a resume point waiting.
        if preempting:
            _emit({
                "event": "snapshot",
                "key": key,
                "cycle": driver.system.cycle,
            })

    with using(Settings(**request["settings"])):
        run = execute_cell(
            cell,
            progress=progress if progress_every else None,
            progress_every=progress_every,
            on_save=on_save,
        )
    _emit({
        "event": "done",
        "key": key,
        "stats": run.stats.to_dict(),
        "core": run.core and run.core.to_dict(),
        "mem_cycles": run.stats.cycles,
        "resumed_cycle": run.resumed_cycle,
        "wall": time.monotonic() - started,
    })


def _key(request: dict) -> Optional[str]:
    return (request.get("cell") or {}).get("key")


class _Inbox:
    """The worker's requests, read off fd 0 by a daemon thread.

    The thread applies a ``recall`` the moment it arrives, and
    :meth:`next` reports ``started`` under the same lock, so a recall
    and the start of the cell it names cannot both happen.  The thread
    reads the raw descriptor: blocked in ``os.read`` it holds no lock
    of ``sys.stdin``'s that interpreter shutdown would wait on.
    """

    def __init__(self, fd: int = 0) -> None:
        self._cond = threading.Condition()
        self._requests: List[dict] = []
        self._eof = False
        threading.Thread(target=self._read, args=(fd,), daemon=True).start()

    def _read(self, fd: int) -> None:
        pending = b""
        try:
            while True:
                data = os.read(fd, 1 << 16)
                if not data:
                    break
                *lines, pending = (pending + data).split(b"\n")
                for line in filter(bytes.strip, lines):
                    self._take(json.loads(line))
        except ValueError:
            pass  # not the pool's framing: stop taking requests
        finally:
            with self._cond:
                self._eof = True
                self._cond.notify()

    def _take(self, request: dict) -> None:
        with self._cond:
            if request.get("op") == "recall":
                self._recall(request.get("key"))
            else:
                self._requests.append(request)
                self._cond.notify()

    def _recall(self, key: Optional[str]) -> None:
        for request in self._requests:
            if request.get("op") == "run" and _key(request) == key:
                self._requests.remove(request)
                _emit({"event": "recalled", "key": key})
                return
        # Not held: the cell already started, and the pool knows it.

    def next(self) -> Optional[dict]:
        """Wait for the next request (``None`` at EOF); a ``run``
        request is reported ``started`` before it is returned."""
        with self._cond:
            while not self._requests and not self._eof:
                self._cond.wait()
            if not self._requests:
                return None
            request = self._requests.pop(0)
            if request.get("op") == "run":
                _emit({"event": "started", "key": _key(request)})
            return request


def main() -> int:
    """Serve requests off stdin until EOF or an ``exit`` op."""
    _emit({"event": "ready", "pid": os.getpid()})
    inbox = _Inbox()
    while True:
        request = inbox.next()
        if request is None or request.get("op") == "exit":
            break
        key = _key(request)
        try:
            if request.get("op") != "run":
                raise ReproError(f"unknown op {request.get('op')!r}")
            _run(request)
        except SystemExit:
            raise       # preemption: exit 143, snapshot already flushed
        except (ReproError, OSError, KeyError, ValueError) as error:
            # The cell dies; the worker survives for the next one.
            _emit({
                "event": "failed",
                "key": key,
                "error": f"{type(error).__name__}: {error}",
            })
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
