"""Boolean environment knobs and the ``REPRO_FASTFWD`` switch.

This module is deliberately dependency-free (``os`` and
:mod:`repro.errors` only) so every layer of the simulator — drivers,
the CPU model, the memory system and the schedulers — can import it
without creating cycles.

:func:`env_flag` reads every on/off knob (``REPRO_FASTFWD``,
``REPRO_ORACLE``, ``REPRO_CACHE``, ``REPRO_CHECKPOINT``) the same way:
``1`` is on, ``0`` is off, unset and empty keep each knob's documented
default, and anything else is a :class:`~repro.errors.ConfigError`
rather than a silent "on".

:func:`fastfwd_enabled` selects the next-event time-skipping run
loops (default on).  ``REPRO_FASTFWD=0`` preserves the strictly
sequential cycle loop as an A/B reference; the two modes are
byte-identical by construction and the equivalence is property-tested
(``tests/test_engine_fastfwd.py``).

Per-layer timing (ticked vs skipped cycles, schedule passes, refresh,
the CPU model) is measured from outside the simulator:
``python3 perfbench/run.py --workload <w> --trace 1`` wraps the
component entry points and reports per-layer metrics such as
``system.skip_frac``, ``sched.gated_frac`` and ``refresh.tick_s``.
"""

from __future__ import annotations

import os

from repro.errors import ConfigError
from repro.timebase import NEVER


def env_flag(name: str, unset: bool, empty: bool = False) -> bool:
    """Read the on/off knob ``name``: ``1`` is on, ``0`` is off.

    An unset variable reads as ``unset`` and an empty one as ``empty``;
    any other value raises :class:`ConfigError` naming the variable.
    """
    raw = os.environ.get(name)
    if raw is None:
        return unset
    if raw == "1":
        return True
    if raw == "0":
        return False
    if raw == "":
        return empty
    raise ConfigError(f"{name} must be 0 or 1, got {raw!r}")


def fastfwd_enabled() -> bool:
    """True unless ``REPRO_FASTFWD`` is set to ``0`` (or empty)."""
    return env_flag("REPRO_FASTFWD", unset=True)


__all__ = [
    "NEVER",
    "env_flag",
    "fastfwd_enabled",
]
