"""Burst data structures (paper §3, Figures 2-4).

A *burst* clusters outstanding reads directed to the same row of the
same bank.  Within a burst every access after the first is a row hit
needing only a column access, so their data transfers run back to back
— the large "payload" of Figure 2 that raises data bus utilisation.

Bursts within a bank are kept sorted by the arrival time of each
burst's *first* access, which the paper uses to prevent starvation of
small bursts (§3).  Because new bursts are appended and joining an
existing burst never changes its first arrival, plain FIFO order of
creation maintains that invariant; :meth:`BurstQueue.check_sorted`
asserts it and the property tests exercise it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.controller.access import MemoryAccess
from repro.errors import SchedulerError


class Burst:
    """Reads to one row of one bank, served in arrival order."""

    __slots__ = ("row", "accesses", "first_arrival", "served")

    def __init__(self, access: MemoryAccess) -> None:
        self.row = access.row
        self.accesses: Deque[MemoryAccess] = deque((access,))
        self.first_arrival = access.arrival
        #: Reads already served from this burst (late joiners included
        #: when the burst finally completes — the Figure 2 payload).
        self.served = 0

    def append(self, access: MemoryAccess) -> None:
        """Join a newly arrived read to this burst (Figure 4 line 6)."""
        if access.row != self.row:
            raise SchedulerError(
                f"access row {access.row} cannot join burst row {self.row}"
            )
        self.accesses.append(access)

    @property
    def head(self) -> MemoryAccess:
        """The next read to serve — reads inside a burst stay in order."""
        return self.accesses[0]

    def pop_head(self) -> MemoryAccess:
        return self.accesses.popleft()

    def __len__(self) -> int:
        return len(self.accesses)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Burst(row={self.row}, size={len(self.accesses)})"


class BurstQueue:
    """The read queue of one bank: bursts in first-arrival order."""

    __slots__ = ("bursts", "last_completed_size", "_by_row")

    def __init__(self) -> None:
        self.bursts: List[Burst] = []
        #: Payload of the most recently completed burst, for the
        #: burst-size statistics.
        self.last_completed_size = 0
        # row -> open burst for that row.  At most one burst per row
        # can be open at a time (joins always target the existing one),
        # so the Figure 4 line 5-8 search is a dict lookup instead of a
        # scan over every queued burst.
        self._by_row: dict = {}

    def add_read(self, access: MemoryAccess) -> Burst:
        """Figure 4 lines 5-8: join an existing burst or create one."""
        burst = self._by_row.get(access.row)
        if burst is not None:
            burst.append(access)
            return burst
        burst = Burst(access)
        self.bursts.append(burst)
        self._by_row[access.row] = burst
        return burst

    def finish_head_read(self) -> bool:
        """Retire the head read of the head burst.

        Returns True when this completed (emptied) the burst — the
        "end of burst" event write piggybacking keys on.
        """
        if not self.bursts:
            raise SchedulerError("finish_head_read on an empty queue")
        head = self.bursts[0]
        head.pop_head()
        head.served += 1
        if not head.accesses:
            self.bursts.pop(0)
            del self._by_row[head.row]
            self.last_completed_size = head.served
            return True
        return False

    def check_sorted(self) -> bool:
        """Starvation-avoidance invariant: first arrivals ascend."""
        arrivals = [b.first_arrival for b in self.bursts]
        return arrivals == sorted(arrivals)

    def __len__(self) -> int:
        return sum(len(b) for b in self.bursts)

    def __bool__(self) -> bool:
        return bool(self.bursts)


__all__ = ["Burst", "BurstQueue"]
