"""The shared memory access pool.

Paper Table 3: the controller holds at most 256 outstanding accesses of
which at most 64 may be writes; Figure 3 shows the read/write queues of
all banks drawing from this shared pool (plus a write data pool, which
we model implicitly — write data is forwarded by the schedulers'
write-queue search).

The pool only counts occupancy and enforces the two capacity limits.
Queue structure belongs to the schedulers; the Burst_TH threshold
compares against :attr:`write_count` here, which is what makes
Burst_RP ≡ TH64 and Burst_WP ≡ TH0 (paper §5.4).
"""

from __future__ import annotations

from repro.controller.access import MemoryAccess
from repro.errors import PoolError


class AccessPool:
    """Occupancy accounting for the shared access pool."""

    def __init__(self, capacity: int, write_capacity: int) -> None:
        if capacity <= 0 or write_capacity <= 0:
            raise PoolError("pool capacities must be positive")
        if write_capacity > capacity:
            raise PoolError("write capacity cannot exceed pool capacity")
        self.capacity = capacity
        self.write_capacity = write_capacity
        self.read_count = 0
        self.write_count = 0
        #: Per-source write occupancy (fleet mode).  Only sources with
        #: a write currently pooled have an entry; single-stream runs
        #: keep everything under source 0.  The QoS quota scheduler
        #: reads this to cap any one tenant's share of the write queue.
        self.write_count_by_source: dict = {}
        #: Bumped on every *write* occupancy change.  The only shared
        #: pool state schedulers read is the write side (the Burst_TH
        #: threshold, write-queue saturation, Intel's watermarks), so
        #: the next-event engine stamps its scheduler gates with this
        #: version: unchanged means no write entered or retired
        #: anywhere.  Read-side changes only matter to the owning
        #: scheduler, which invalidates its gate directly.
        self.write_version = 0

    @property
    def count(self) -> int:
        return self.read_count + self.write_count

    @property
    def full(self) -> bool:
        return self.count >= self.capacity

    @property
    def write_queue_full(self) -> bool:
        return self.write_count >= self.write_capacity

    def can_accept(self, access: MemoryAccess) -> bool:
        """Would the pool admit this access right now?  (:attr:`full`
        and :attr:`write_queue_full`, read off the counters.)"""
        writes = self.write_count
        if self.read_count + writes >= self.capacity:
            return False
        return not (access.is_write and writes >= self.write_capacity)

    def add(self, access: MemoryAccess) -> None:
        if not self.can_accept(access):
            raise PoolError(
                f"pool overflow adding {access!r} "
                f"(reads={self.read_count}, writes={self.write_count})"
            )
        if access.is_write:
            self.write_count += 1
            self.write_version += 1
            by_source = self.write_count_by_source
            by_source[access.source] = by_source.get(access.source, 0) + 1
        else:
            self.read_count += 1

    def source_write_count(self, source: int) -> int:
        """How many pooled writes belong to one tenant right now."""
        return self.write_count_by_source.get(source, 0)

    def remove(self, access: MemoryAccess) -> None:
        if access.is_write:
            if self.write_count <= 0:
                raise PoolError("write pool underflow")
            self.write_count -= 1
            self.write_version += 1
            by_source = self.write_count_by_source
            left = by_source.get(access.source, 0) - 1
            if left < 0:
                raise PoolError(
                    f"write pool underflow for source {access.source}"
                )
            if left:
                by_source[access.source] = left
            else:
                by_source.pop(access.source, None)
        else:
            if self.read_count <= 0:
                raise PoolError("read pool underflow")
            self.read_count -= 1


__all__ = ["AccessPool"]
