"""Simulator snapshots with byte-identical resume.

A snapshot is one JSON header line followed by the pickled driver —
open-loop or closed-loop CPU — with everything under it, so resuming
it continues the saved run and produces
:class:`~repro.sim.stats.SimStats` byte-identical to the uninterrupted
run.  ``driver = load_checkpoint(path, target)`` checks the header
against a target built as for the original run, then returns the
saved driver.  See DESIGN.md §10 for the format and the header checks.
"""

from repro.checkpoint.format import (
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from repro.checkpoint.manager import Checkpointer

__all__ = [
    "Checkpointer",
    "load_checkpoint",
    "read_header",
    "save_checkpoint",
]
