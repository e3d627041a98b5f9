"""Checkpoint scheduling: periodic snapshots and SIGTERM handoff.

A :class:`Checkpointer` is handed to a driver's ``run(...)`` loop,
which calls :meth:`Checkpointer.poll` at loop-iteration boundaries —
the only points where every component invariant holds, making them the
only legal snapshot points — once the memory cycle has reached
:attr:`Checkpointer.next_poll_cycle`, the first cycle at which a poll
could act.  The manager decides *when* to actually save:

* every ``every`` memory cycles (periodic snapshots), and/or
* when a SIGTERM arrived since the last poll — the handler only sets
  a flag, so the snapshot is still taken at a clean loop boundary,
  then the process exits with status 143 (the conventional
  128+SIGTERM), which the experiment runner and the CI smoke job use
  to distinguish "interrupted with a snapshot" from a crash.

Two optional hooks ride on the same poll cadence so embedders (the
job-service worker, foremost) can observe a run without a second
polling channel:

* ``progress(driver)`` fires every ``progress_every`` memory cycles —
  the service worker turns it into streamed per-cell progress events;
* ``on_save(driver, preempting)`` fires after every snapshot, with
  ``preempting=True`` exactly when the save was forced by a stop
  request and the process is about to exit 143 — the worker's last
  chance to announce where the migratable snapshot was cut.
"""

from __future__ import annotations

import signal
from typing import Callable, Optional

from repro.checkpoint.format import save_checkpoint
from repro.errors import ConfigError
from repro.timebase import NEVER

#: Conventional exit status for a SIGTERM-driven shutdown (128 + 15).
SIGTERM_EXIT_CODE = 143


class Checkpointer:
    """Decides at each run-loop boundary whether to snapshot."""

    def __init__(
        self,
        path: str,
        every: Optional[int] = None,
        meta: Optional[dict] = None,
        progress: Optional[Callable] = None,
        progress_every: Optional[int] = None,
        on_save: Optional[Callable] = None,
    ) -> None:
        if every is not None and every < 1:
            raise ConfigError(
                f"checkpoint interval must be at least 1 cycle, got {every}"
            )
        self.path = path
        self.every = every
        self.meta = meta
        self.progress = progress
        self.progress_every = progress_every
        self.on_save = on_save
        self.saves = 0
        self._last_saved_cycle = 0
        self._last_progress_cycle = 0
        self._stop_requested = False
        self._prev_handler = None
        self._installed = False
        #: First memory cycle at which :meth:`poll` would act: the next
        #: periodic save or progress tick (``NEVER`` with neither), or
        #: -1 once a stop was requested.  The run loops call ``poll``
        #: only when ``system.cycle`` has reached it.
        self.next_poll_cycle: int
        self._reschedule()

    def install_signal_handler(self) -> None:
        """Route SIGTERM to a save-at-next-poll-then-exit.

        Safe to call from worker processes; in non-main threads (where
        ``signal.signal`` raises) it degrades to periodic-only.  Pair
        with :meth:`uninstall_signal_handler` once the run finishes:
        the flag-only handler must not outlive the run loop that polls
        the flag, or a later SIGTERM (e.g. the worker pool stopping an
        idle worker between cells) is silently absorbed and the
        process never dies.
        """
        try:
            self._prev_handler = signal.signal(
                signal.SIGTERM, self._on_sigterm
            )
            self._installed = True
        except ValueError:
            pass

    def uninstall_signal_handler(self) -> None:
        """Restore the SIGTERM disposition captured at install time."""
        if not self._installed:
            return
        try:
            signal.signal(
                signal.SIGTERM, self._prev_handler or signal.SIG_DFL
            )
        except ValueError:
            pass
        self._installed = False

    def _on_sigterm(self, signum, frame) -> None:
        # Flag only: the snapshot must happen at a loop boundary, not
        # wherever the signal happened to interrupt execution.
        self._stop_requested = True
        self.next_poll_cycle = -1

    def request_stop(self) -> None:
        """Programmatic SIGTERM equivalent (tests, in-process kills)."""
        self._stop_requested = True
        self.next_poll_cycle = -1

    def _reschedule(self) -> None:
        """Recompute :attr:`next_poll_cycle` after a save or progress."""
        due = NEVER
        if self.every is not None:
            due = self._last_saved_cycle + self.every
        if self.progress is not None and self.progress_every is not None:
            due = min(due, self._last_progress_cycle + self.progress_every)
        self.next_poll_cycle = due
        # Checked after the store: a SIGTERM landing mid-recompute has
        # either set -1 itself or is seen here, so it is never lost.
        if self._stop_requested:
            self.next_poll_cycle = -1

    def save(self, driver, preempting: bool = False) -> None:
        """Snapshot now (caller must be at a loop boundary)."""
        save_checkpoint(self.path, driver, meta=self.meta)
        self.saves += 1
        self._last_saved_cycle = driver.system.cycle
        self._reschedule()
        if self.on_save is not None:
            self.on_save(driver, preempting)

    def poll(self, driver) -> None:
        """Called by run loops at an iteration boundary, before stepping.

        The loops skip the call until ``driver.system.cycle`` reaches
        :attr:`next_poll_cycle`; before then it would do nothing.
        """
        if self._stop_requested:
            self.save(driver, preempting=True)
            raise SystemExit(SIGTERM_EXIT_CODE)
        if (
            self.every is not None
            and driver.system.cycle - self._last_saved_cycle >= self.every
        ):
            self.save(driver)
        if (
            self.progress is not None
            and self.progress_every is not None
            and driver.system.cycle - self._last_progress_cycle
            >= self.progress_every
        ):
            self._last_progress_cycle = driver.system.cycle
            self._reschedule()
            self.progress(driver)


__all__ = ["Checkpointer", "SIGTERM_EXIT_CODE"]
