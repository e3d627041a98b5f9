"""The simulator's import footprint: no numpy in any process, no
``asyncio`` or ``multiprocessing`` in an in-process run, and no
``asyncio`` in a job-service worker or client.

Every simulator process — ``repro-sim``, ``repro-experiments``, the
job server and its workers — imports the same packages.  None of them
needs numpy (the flat scheduler core's wake min is plain int code), so
importing it would only cost start-up time and resident memory.  Only
a ``--jobs N`` run or the job server drives the worker pool, so a
``jobs=1`` run loads no event loop either, and nor does a worker
process or a client: they import the service package, not its server.
Each check runs in a fresh interpreter so that nothing this test
session imported can hide or fake the result.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

CODE = """
import sys
import repro
import repro.cli
import repro.experiments
import repro.service.server
import repro.service.workers
from repro.experiments import runner
from repro.sim.config import baseline_config
runner.run_cells([("swim", "Burst_TH", 500, 1, baseline_config())], jobs=1)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
assert not loaded, loaded[:5]
"""


INLINE = """
import sys
import repro.cli
import repro.experiments
from repro.experiments import runner
from repro.sim.config import baseline_config
runner.run_cells(
    [(w, "Burst_TH", 500, 1, baseline_config())
     for w in ("swim", "swim+mcf", "stride8k")],
    jobs=1,
)
loaded = sorted(
    m for m in sys.modules
    if m.split(".")[0] in ("asyncio", "multiprocessing")
)
assert not loaded, loaded[:5]
"""


NO_SERVER = """
import sys
import {module}
assert "asyncio" not in sys.modules
"""


def _run(code, **env_extra):
    env = dict(os.environ, **env_extra)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )


def test_simulator_never_imports_numpy():
    proc = _run(CODE)
    assert proc.returncode == 0, proc.stderr


def test_inline_run_loads_no_event_loop_or_process_pool():
    proc = _run(INLINE, REPRO_CACHE="0", REPRO_PROGRESS="0")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "module", ["repro.service.workers", "repro.service.client"]
)
def test_service_worker_and_client_load_no_event_loop(module):
    proc = _run(NO_SERVER.format(module=module))
    assert proc.returncode == 0, proc.stderr
