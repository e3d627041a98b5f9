"""The ``REPRO_*`` knobs: one parser, one table.

Every knob is a field of :class:`repro.settings.Settings`, parsed by
:meth:`Settings.from_env`.  The table below names each field's
variable, its default, the spellings it accepts and the exact error
each rejected spelling raises.  The on/off knobs take ``1`` and ``0``;
unset and empty keep their documented meanings, and any other spelling
(``false``, ``off``, ``true``) is a :class:`ConfigError` instead of
silently reading as "on" (or, for ``REPRO_PROGRESS``, as "auto").
"""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.controller.system import MemorySystem
from repro.errors import ConfigError
from repro.settings import Settings, setting, settings, using
from repro.sim.config import baseline_config


def _flag_errors(variable):
    return {
        value: f"{variable} must be 0 or 1, got '{value}'"
        for value in ("false", "off", "true")
    }


def _integer_errors(variable, *values):
    return {
        value: f"{variable} must be an integer, got {value!r}"
        for value in values
    }


def _scale_errors(*values):
    return {
        value: f"REPRO_SCALE must be a finite number > 0, got {value!r}"
        for value in values
    }


#: field -> (variable, default, {spelling: value}, {spelling: error}).
KNOBS = {
    "jobs": (
        "REPRO_JOBS", 1,
        {"7": 7, " 3 ": 3, "0": os.cpu_count() or 1},
        {**_integer_errors("REPRO_JOBS", "bogus", "", "1.5"),
         "-2": "REPRO_JOBS must be >= 0, got -2"},
    ),
    "cache": (
        "REPRO_CACHE", True, {"": True, "0": False, "1": True},
        _flag_errors("REPRO_CACHE"),
    ),
    "cache_dir": (
        "REPRO_CACHE_DIR", Path(".repro-cache"),
        {"/tmp/rc": Path("/tmp/rc"), "": Path(".")}, {},
    ),
    "progress": (
        "REPRO_PROGRESS", None, {"": None, "0": False, "1": True},
        _flag_errors("REPRO_PROGRESS"),
    ),
    "checkpoint": (
        "REPRO_CHECKPOINT", False, {"": False, "0": False, "1": True},
        _flag_errors("REPRO_CHECKPOINT"),
    ),
    "checkpoint_every": (
        "REPRO_CHECKPOINT_EVERY", 1_000_000, {"5000": 5000},
        {**_integer_errors("REPRO_CHECKPOINT_EVERY", "x", ""),
         "0": "REPRO_CHECKPOINT_EVERY must be positive, got 0",
         "-5": "REPRO_CHECKPOINT_EVERY must be positive, got -5"},
    ),
    "oracle": (
        "REPRO_ORACLE", False, {"": False, "0": False, "1": True},
        _flag_errors("REPRO_ORACLE"),
    ),
    "fastfwd": (
        "REPRO_FASTFWD", True, {"": False, "0": False, "1": True},
        _flag_errors("REPRO_FASTFWD"),
    ),
    "scale": (
        "REPRO_SCALE", 1.0,
        {"1": 1.0, "1.0": 1.0, " 2 ": 2.0, "1e0": 1.0, "0.25": 0.25},
        _scale_errors("abc", "nan", "inf", "-inf", "-2", "0", ""),
    ),
    "seed": (
        "REPRO_SEED", 1, {"7": 7, "-3": -3},
        _integer_errors("REPRO_SEED", "x", "1.5", ""),
    ),
}

VARIABLES = {variable: field for field, (variable, *_) in KNOBS.items()}

#: The fields the derived ``cache`` is computed from besides its own.
DERIVE_CACHE = ("oracle", "fastfwd")

REJECTED = [
    (variable, value, error)
    for variable, _, _, errors in KNOBS.values()
    for value, error in errors.items()
]


@pytest.fixture(autouse=True)
def bare_environment(monkeypatch):
    """No knob set: each case sets only the one it reads."""
    for variable in VARIABLES:
        monkeypatch.delenv(variable, raising=False)


def test_the_table_covers_every_field():
    assert list(KNOBS) == [f.name for f in dataclasses.fields(Settings)]
    assert Settings.from_env() == Settings()


@pytest.mark.parametrize("knob", sorted(VARIABLES))
def test_accepted_values_keep_their_meaning(knob, monkeypatch):
    field = VARIABLES[knob]
    _, default, accepted, _ = KNOBS[field]
    assert getattr(Settings.from_env(), field) == default
    assert getattr(Settings(), field) == default
    for value, meaning in accepted.items():
        monkeypatch.setenv(knob, value)
        assert getattr(Settings.from_env(), field) == meaning, value
        assert setting(field) == meaning, value


@pytest.mark.parametrize(
    "knob, value, error", REJECTED, ids=[f"{k}-{v}" for k, v, _ in REJECTED]
)
def test_unknown_value_is_a_config_error(knob, value, error, monkeypatch):
    monkeypatch.setenv(knob, value)
    field = VARIABLES[knob]
    for read in (Settings.from_env, settings, lambda: setting(field)):
        with pytest.raises(ConfigError, match=f"^{re.escape(error)}$"):
            read()
    # A bad knob stops only what reads it (the cache reads the oracle
    # and engine knobs too), and a given value leaves it unread.
    for other in KNOBS:
        if other != field and not (other == "cache" and field in DERIVE_CACHE):
            setting(other)
    assert Settings.from_env(**{field: getattr(Settings(), field)}) == Settings()


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("jobs", -2, "jobs must be >= 0, got -2"),
        ("jobs", "x", "jobs must be an integer, got 'x'"),
        ("checkpoint_every", 0, "checkpoint_every must be positive, got 0"),
        ("scale", 0.0, "scale must be a finite number > 0, got 0.0"),
        ("seed", None, "seed must be an integer, got None"),
    ],
)
def test_explicit_fields_are_checked_like_the_environment(field, value, error):
    with pytest.raises(ConfigError, match=f"^{re.escape(error)}$"):
        dataclasses.replace(Settings(), **{field: value})


def test_jobs_zero_means_every_core():
    assert Settings(jobs=0).jobs == (os.cpu_count() or 1)


@pytest.mark.parametrize("knobs", [{"oracle": True}, {"fastfwd": False}])
def test_a_checking_run_never_uses_the_cache(knobs):
    """The cell key holds neither the oracle nor the engine mode, so
    the cache is off whenever either asks for a checking run."""
    assert Settings().cache
    assert not Settings(**knobs).cache
    assert not dataclasses.replace(Settings(), **knobs).cache


def test_cache_is_off_under_repro_oracle(monkeypatch):
    monkeypatch.setenv("REPRO_ORACLE", "1")
    assert not Settings.from_env().cache


def test_override_wins_and_wire_round_trips(monkeypatch):
    monkeypatch.setenv("REPRO_FASTFWD", "bogus")
    chosen = Settings(jobs=3, cache_dir="/tmp/rc", progress=False, seed=9)
    with using(chosen):
        assert settings() is chosen
        assert setting("seed") == 9 and setting("fastfwd")
    with pytest.raises(ConfigError):
        settings()
    assert Settings(**chosen.to_wire()) == chosen
    assert chosen.to_wire()["cache_dir"] == "/tmp/rc"


def test_memory_system_reads_the_oracle_and_engine_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_ORACLE", "1")
    monkeypatch.setenv("REPRO_FASTFWD", "0")
    for knob in ("REPRO_JOBS", "REPRO_SCALE", "REPRO_SEED", "REPRO_CHECKPOINT_EVERY"):
        monkeypatch.setenv(knob, "bogus")  # read by no memory system
    system = MemorySystem(baseline_config(), "BkInOrder")
    assert system.oracles and not system._fastfwd
    with using(Settings()):
        system = MemorySystem(baseline_config(), "BkInOrder")
    assert not system.oracles and system._fastfwd


def test_only_settings_and_the_pool_touch_the_environment():
    """``src/`` reads ``os.environ`` in ``settings.py`` and in the
    pool's child-environment build only, and writes it nowhere."""
    root = Path(repro.__file__).resolve().parent
    access = re.compile(r"\bos\.(environ|getenv|putenv|unsetenv)\b|from os import")
    write = re.compile(
        r"environ\s*\[[^\]]*\]\s*=|environ\.(update|pop|setdefault|clear)\b"
        r"|\bdel\s+os\.environ|putenv|unsetenv"
    )
    readers = {}
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        assert not write.search(text), path
        lines = [line for line in text.splitlines() if access.search(line)]
        if lines:
            readers[path.relative_to(root).as_posix()] = lines
    assert sorted(readers) == ["service/pool.py", "settings.py"]
    (child_env,) = readers["service/pool.py"]
    assert 'not k.startswith("REPRO_")' in child_env


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


def test_cli_flags_leave_the_environment_alone(monkeypatch, capsys):
    """``--jobs``, ``--no-progress`` and ``--oracle`` reach the command
    as a settings override, winning over their variables, which are not
    read; ``os.environ`` is the same afterwards."""
    from repro.experiments import fig1
    from repro.experiments.cli import main

    for knob in ("REPRO_JOBS", "REPRO_PROGRESS", "REPRO_ORACLE"):
        monkeypatch.setenv(knob, "bogus")
    seen = []
    run = fig1.main
    monkeypatch.setattr(fig1, "main", lambda: seen.append(settings()) or run())
    before = dict(os.environ)
    assert main(["run", "fig1", "--jobs", "2", "--no-progress", "--oracle"]) == 0
    assert dict(os.environ) == before
    assert "28" in capsys.readouterr().out
    (during,) = seen
    assert (during.jobs, during.progress, during.oracle) == (2, False, True)
    with pytest.raises(ConfigError):  # the override ends with the command
        settings()
