"""The service worker process: ``python -m repro.service.workers``.

One worker is one long-lived process owning one cell at a time.  Its
:class:`~repro.service.pool.WorkerPool` writes run requests to its
stdin (one JSON object per line; ``checkpoint`` says whether a ``sim``
cell snapshots) and reads events off its stdout (same framing, always
flushed — stdout is a pipe, and a buffered event is an invisible
event):

* ``ready``                 — worker booted, willing to take a cell
* ``progress``              — every ``progress_every`` memory cycles
* ``snapshot``              — a preemption snapshot was just written
* ``done``                  — cell finished; carries the full result
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

``fleet`` cells have no snapshot path (open-loop multi-tenant runs);
preempting one simply restarts it later — still correct, just unpaid
work, so the pool prefers preempting ``sim`` cells.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Optional

from repro.errors import ReproError
from repro.service.jobs import sim_cell_from_wire


def _emit(event: dict) -> None:
    sys.stdout.write(json.dumps(event, sort_keys=True) + "\n")
    sys.stdout.flush()


def _run_sim(request: dict) -> None:
    """Execute one closed-loop cell, snapshotting if ``checkpoint``."""
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

    run = execute_cell(
        cell,
        checkpoint=request["checkpoint"],
        progress=progress if progress_every else None,
        progress_every=progress_every,
        on_save=on_save,
    )
    _emit({
        "event": "done",
        "key": key,
        "kind": "sim",
        "stats": run.stats.to_dict(),
        "core": run.core.to_dict(),
        "mem_cycles": run.core.mem_cycles,
        "resumed_cycle": run.resumed_cycle,
        "wall": time.monotonic() - started,
    })


def _run_fleet(request: dict) -> None:
    """Execute one open-loop fleet scenario cell."""
    from repro.experiments.fleet import run_scenario

    spec = request["cell"]
    started = time.monotonic()
    metrics = run_scenario(
        spec["scenario"],
        spec["mechanism"],
        accesses=spec.get("accesses"),
        seed=spec.get("seed"),
    )
    _emit({
        "event": "done",
        "key": spec["key"],
        "kind": "fleet",
        "metrics": metrics,
        "mem_cycles": int(metrics.get("cycles", 0)),
        "resumed_cycle": None,
        "wall": time.monotonic() - started,
    })


def main() -> int:
    """Read run requests off stdin until EOF or an ``exit`` op."""
    _emit({"event": "ready", "pid": os.getpid()})
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        request = json.loads(line)
        if request.get("op") == "exit":
            break
        key = (request.get("cell") or {}).get("key")
        try:
            if request.get("op") != "run":
                raise ReproError(f"unknown op {request.get('op')!r}")
            if request["cell"]["kind"] == "fleet":
                _run_fleet(request)
            else:
                _run_sim(request)
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
