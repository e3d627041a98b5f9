"""On/off environment knobs: one reader, four accepted spellings.

``REPRO_FASTFWD``, ``REPRO_ORACLE``, ``REPRO_CACHE``,
``REPRO_CHECKPOINT`` and ``REPRO_PROGRESS`` all read through
:func:`repro.sim.profile.env_flag`.  Unset, empty, ``0`` and ``1`` keep
each knob's documented meaning; any other spelling (``false``, ``off``,
``true``) is a :class:`ConfigError` instead of silently reading as "on"
(or, for ``REPRO_PROGRESS``, as "auto").
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.controller.system import MemorySystem
from repro.errors import ConfigError
from repro.experiments import runner
from repro.sim.config import baseline_config
from repro.sim.profile import fastfwd_enabled


def _oracle_attached():
    return bool(MemorySystem(baseline_config(), "BkInOrder").oracles)


def _progress_on_a_pipe():
    # Unset and empty follow whether stderr is a tty; pin it to a pipe.
    with contextlib.redirect_stderr(io.StringIO()):
        return runner._auto_progress() is not None


READERS = {
    "REPRO_FASTFWD": fastfwd_enabled,
    "REPRO_ORACLE": _oracle_attached,
    "REPRO_CACHE": runner.cache_enabled,
    "REPRO_CHECKPOINT": runner.checkpoint_enabled,
    "REPRO_PROGRESS": _progress_on_a_pipe,
}

#: Each knob's reading when unset, ``""``, ``"0"`` and ``"1"``.
MEANINGS = {
    "REPRO_FASTFWD": (True, False, False, True),
    "REPRO_ORACLE": (False, False, False, True),
    "REPRO_CACHE": (True, True, False, True),
    "REPRO_CHECKPOINT": (False, False, False, True),
    "REPRO_PROGRESS": (False, False, False, True),
}


@pytest.mark.parametrize("knob", sorted(READERS))
def test_accepted_values_keep_their_meaning(knob, monkeypatch):
    read = READERS[knob]
    monkeypatch.delenv(knob, raising=False)
    got = [read()]
    for value in ("", "0", "1"):
        monkeypatch.setenv(knob, value)
        got.append(read())
    assert tuple(got) == MEANINGS[knob]


@pytest.mark.parametrize("value", ["false", "off", "true"])
@pytest.mark.parametrize("knob", sorted(READERS))
def test_unknown_value_is_a_config_error(knob, value, monkeypatch):
    monkeypatch.setenv(knob, value)
    with pytest.raises(ConfigError, match=f"^{knob} must be 0 or 1, got '{value}'$"):
        READERS[knob]()


def test_repro_sim_reports_unknown_knob_value():
    env = dict(os.environ, REPRO_ORACLE="false")
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "--benchmark", "swim",
         "--mechanism", "Burst_TH", "--accesses", "200"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: REPRO_ORACLE must be 0 or 1, got 'false'\n"
