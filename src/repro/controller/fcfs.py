"""Strict first-come-first-served scheduling (reference floor).

Not part of the paper's Table 4 — provided as the classic lower bound
the memory-scheduling literature measures from (Rixner et al. call it
"in-order"): one global queue, one access at a time, the next access's
transactions start only when the previous access completed.  No bank
pipelining, no interleaving, no reordering — the Figure 1a discipline
generalised.  Useful to quantify how much of BkInOrder's performance
already comes from inter-bank pipelining.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.controller.access import MemoryAccess
from repro.controller.base import COLUMN, Scheduler
from repro.timebase import NEVER


class FCFSScheduler(Scheduler):
    """One global FIFO; fully serialised service."""

    name = "FCFS"

    #: One global FIFO, no thresholds: a pass never reads the shared
    #: pool, so the no-op gate survives other channels' writes.
    pool_sensitive = False

    def __init__(self, config, channel, pool, stats) -> None:
        super().__init__(config, channel, pool, stats)
        self._queue: Deque[MemoryAccess] = deque()
        self._ongoing: Optional[MemoryAccess] = None

    def _enqueue_read(self, access: MemoryAccess, cycle: int) -> None:
        self._queue.append(access)

    def _enqueue_write(self, access: MemoryAccess, cycle: int) -> None:
        self._queue.append(access)

    def pending_accesses(self) -> int:
        return len(self._queue) + (1 if self._ongoing else 0)

    def next_wakeup(self, cycle: int) -> int:
        """Exact wakeup for the fully serialised discipline.

        Safe because a quiet :meth:`schedule` pass leaves one of three
        frozen states: an ongoing access whose earliest legal cycle is
        computable (``NEVER`` for a WAR-blocked write, unblocked by the
        older read's completion in this scheduler's own heap); a queue
        head whose pop waits for the data bus to drain (the pass this
        cycle already proved ``data_busy_until > cycle``, and popping
        later is equivalent — selection is the fixed queue head and the
        issue thresholds do not depend on when the pop happened); or
        nothing pending at all.
        """
        wake = self._completions[0][0] if self._completions else NEVER
        access = self._ongoing
        if access is not None:
            candidate = self.earliest_issue_cycle(access, cycle)
        elif self._queue:
            candidate = self.channel.data_busy_until
            if candidate <= cycle:
                candidate = cycle
        else:
            return wake
        return candidate if candidate < wake else wake

    def schedule(self, cycle: int) -> None:
        if self._ongoing is None:
            if not self._queue:
                return
            # Strict serialisation: the next access starts only after
            # the previous one's data transfer has fully completed.
            if self.channel.data_busy_until > cycle:
                return
            self._ongoing = self._queue.popleft()
        access = self._ongoing
        if not self.can_issue_access(access, cycle):
            return
        if self.issue_for(access, cycle) is COLUMN:
            self._ongoing = None


__all__ = ["FCFSScheduler"]
