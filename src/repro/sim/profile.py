"""The ``REPRO_FASTFWD`` switch for the next-event run loops.

This module is deliberately dependency-free (``os`` only) so every
layer of the simulator — drivers, CPU models, the memory system and
the schedulers — can import it without creating cycles.

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

from repro.timebase import NEVER


def fastfwd_enabled() -> bool:
    """True unless ``REPRO_FASTFWD`` is set to ``0`` (or empty)."""
    return os.environ.get("REPRO_FASTFWD", "1") not in ("", "0")


__all__ = [
    "NEVER",
    "fastfwd_enabled",
]
