"""The simulator's import footprint: no numpy in any process.

Every simulator process — ``repro-sim``, each ``repro-experiments``
pool worker, the job server and its workers — imports the same
packages.  None of them needs numpy (the flat scheduler core's wake
min is plain int code), so importing it would only cost start-up time
and resident memory.  The check runs in a fresh interpreter so that
nothing this test session imported can hide or fake the result.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

CODE = """
import sys
import repro
import repro.cli
import repro.experiments
import repro.service.server
import repro.service.workers
repro.simulate_profile("swim", "Burst_TH", 500)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
assert not loaded, loaded[:5]
"""


def test_simulator_never_imports_numpy():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", CODE], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
