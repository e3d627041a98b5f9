"""Run settings: every ``REPRO_*`` knob, parsed in one place.

:class:`Settings` holds the ten knobs that shape a run and
:meth:`Settings.from_env` is their one parser.  The simulator reads
them through :func:`settings` (all ten) or :func:`setting` (one): the
override a :func:`using` block installed, else the environment, read
afresh on every call.  :func:`setting` parses only the variables its
field depends on, so a bad knob fails only the code that reads it.
The ``repro-experiments`` flags and the worker pool's run requests
install overrides; nothing in the package writes ``os.environ``.

Field ``name`` is read from ``REPRO_NAME``::

    field             default       meaning
    jobs              1             worker processes for runner cells (0: all cores)
    cache             on            the result cache (off when oracle is on or fastfwd off)
    cache_dir         .repro-cache  where the cache and runner-cell checkpoints live
    progress          tty           the [matrix] progress line (None: only on a tty)
    checkpoint        off           snapshot in-flight runner cells, repro-sim's too, and resume them
    checkpoint_every  1000000       snapshot interval in memory cycles (> 0)
    oracle            off           attach the protocol oracle to every memory system
    fastfwd           on            the next-event run loop (off: one step per cycle)
    scale             1.0           multiplies experiment access counts (finite, > 0)
    seed              1             experiment workload seed (an integer)

The on/off knobs take ``1`` or ``0``.  Unset keeps each one's
default; empty reads as ``0``, except for ``REPRO_CACHE`` and
``REPRO_PROGRESS``, where it reads as unset.  Any other value, and a
number that does not parse or is out of range, is a
:class:`~repro.errors.ConfigError` naming the variable.

The cache is derived as well as chosen: a cell's cache key holds
neither the oracle nor the engine mode, so a warm cache never stands
in for a run that checks or takes the reference loop.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterator, Optional

from repro.errors import ConfigError


def _integer(name: str, raw: object, least: Optional[int] = None, rule: str = "") -> int:
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None
    if least is not None and value < least:
        raise ConfigError(f"{name} must be {rule}, got {value}")
    return value


def _scale(name: str, raw: object) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if not 0 < value < math.inf:
        raise ConfigError(f"{name} must be a finite number > 0, got {raw!r}")
    return value


#: The number fields' checks, for explicit values and the environment's.
_NUMBERS = {
    "jobs": lambda name, raw: _integer(name, raw, 0, ">= 0") or (os.cpu_count() or 1),
    "checkpoint_every": lambda name, raw: _integer(name, raw, 1, "positive"),
    "scale": _scale,
    "seed": _integer,
}

#: The on/off fields' meanings when their variable is unset and empty.
_FLAGS = {
    "cache": (True, True),
    "progress": (None, None),  # None: only when stderr is a tty
    "checkpoint": (False, False),
    "oracle": (False, False),
    "fastfwd": (True, False),
}


@dataclass(frozen=True)
class Settings:
    """The ten run knobs, validated (see the module docstring)."""

    jobs: int = 1
    cache: bool = True
    cache_dir: Path = Path(".repro-cache")
    progress: Optional[bool] = None
    checkpoint: bool = False
    checkpoint_every: int = 1_000_000
    oracle: bool = False
    fastfwd: bool = True
    scale: float = 1.0
    seed: int = 1

    def __post_init__(self) -> None:
        put = object.__setattr__
        for name, check in _NUMBERS.items():
            put(self, name, check(name, getattr(self, name)))
        put(self, "cache", self.cache and not self.oracle and self.fastfwd)
        put(self, "cache_dir", Path(self.cache_dir))

    @classmethod
    def from_env(cls, **given: object) -> "Settings":
        """Parse every knob whose field is not ``given``: a given value
        wins over its variable, which is then not read."""
        return cls(**{f.name: given[f.name] if f.name in given else _read(f.name)
                      for f in fields(cls)})

    def to_wire(self) -> dict:
        """The fields as JSON values; ``Settings(**wire)`` reads them back."""
        return dict(asdict(self), cache_dir=str(self.cache_dir))


def _read(name: str) -> object:
    """Field ``name`` from ``REPRO_NAME``."""
    variable = "REPRO_" + name.upper()
    raw = os.environ.get(variable)
    if name in _FLAGS:
        if raw not in (None, "", "0", "1"):
            raise ConfigError(f"{variable} must be 0 or 1, got {raw!r}")
        unset, empty = _FLAGS[name]
        return {None: unset, "": empty, "0": False, "1": True}[raw]
    if raw is None:
        return getattr(Settings, name)  # the field's default
    check = _NUMBERS.get(name)
    return Path(raw) if check is None else check(variable, raw)


_override: ContextVar[Optional[Settings]] = ContextVar("settings", default=None)


def settings() -> Settings:
    """The settings in force: :func:`using`'s, else the environment's."""
    chosen = _override.get()
    return Settings.from_env() if chosen is None else chosen


def setting(name: str) -> object:
    """One field of the settings in force.

    Without an override only the variables that field depends on are
    parsed, so a bad knob stops only the code that reads it.
    """
    chosen = _override.get()
    if chosen is not None:
        return getattr(chosen, name)
    needs = ("cache", "oracle", "fastfwd") if name == "cache" else (name,)
    return getattr(Settings(**{field: _read(field) for field in needs}), name)


@contextmanager
def using(chosen: Settings) -> Iterator[Settings]:
    """Run the block (and the tasks it starts) under ``chosen``."""
    token = _override.set(chosen)
    try:
        yield chosen
    finally:
        _override.reset(token)


__all__ = ["Settings", "setting", "settings", "using"]
