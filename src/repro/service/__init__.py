"""Simulation-as-a-service: a sharded, preemptible, cache-fronted
experiment fleet (DESIGN.md §15).

PRs 2 and 5 built the parts — a content-addressed result cache, a
parallel cell runner, and SIGTERM-safe checkpoints with
byte-identical resume.  This package composes them into a long-running
job service:

* :mod:`repro.service.jobs` — the cell/job model: wire format, matrix
  expansion (``fig7``, ``generations``, ``fleet``) and result digests;
* :mod:`repro.service.workers` — the worker process: executes cells
  via :func:`repro.experiments.runner.execute_cell`, streams ND-JSON
  progress, snapshots and exits 143 on SIGTERM (preemption);
* :mod:`repro.service.pool` — the worker pool: spawns the workers,
  dispatches by priority, retries crashed cells, preempts and
  migrates cells via their snapshots (``run_cells --jobs N`` drives
  it too);
* :mod:`repro.service.server` — the stdlib-asyncio job server:
  dedupes cells against ``.repro-cache/``, shards misses across the
  worker pool, streams per-job events and answers matrix queries
  over a Unix socket;
* :mod:`repro.service.client` — the synchronous ND-JSON client used
  by tests and the ``repro-serve`` CLI (:mod:`repro.service.cli`).
"""

from repro.service.client import ServiceClient
from repro.service.jobs import CellSpec, expand_submission, result_digest
from repro.service.server import JobServer

__all__ = [
    "CellSpec",
    "JobServer",
    "ServiceClient",
    "expand_submission",
    "result_digest",
]
