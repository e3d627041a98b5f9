"""Simulation-as-a-service: experiment matrices sharded across a
cache-fronted worker pool that preempts and migrates cells
(DESIGN.md §15).

PRs 2 and 5 built the parts — a content-addressed result cache, a
parallel cell runner, and SIGTERM-safe checkpoints with
byte-identical resume.  This package composes them into a long-running
job service:

* :mod:`repro.service.jobs` — submissions: client-cell checks, matrix
  expansion (``fig7``, ``generations``) into the runner's cells under
  their cache keys, and result digests;
* :mod:`repro.service.workers` — the worker process: executes cells
  via :func:`repro.experiments.runner.execute_cell`, streams ND-JSON
  progress, snapshots and exits 143 on SIGTERM (preemption);
* :mod:`repro.service.pool` — the worker pool: spawns the workers,
  dispatches by priority, retries crashed cells, preempts and
  migrates cells via their snapshots (``run_cells --jobs N`` drives
  it too);
* :mod:`repro.service.server` — the stdlib-asyncio job server:
  dedupes cells against ``.repro-cache/``, shards misses across the
  worker pool and streams per-job events over a Unix socket;
* :mod:`repro.service.client` — the synchronous ND-JSON client used
  by tests and the ``repro-serve`` CLI (:mod:`repro.service.cli`).
"""

import importlib

#: Each export's home module.  They load on first use (PEP 562), so a
#: worker or a client that imports this package never loads the job
#: server and its ``asyncio``.
_EXPORTS = {
    "JobServer": "repro.service.server",
    "ServiceClient": "repro.service.client",
    "expand_submission": "repro.service.jobs",
    "result_digest": "repro.service.jobs",
}


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(importlib.import_module(module), name)


__all__ = [
    "JobServer",
    "ServiceClient",
    "expand_submission",
    "result_digest",
]
