"""Memory accesses — the unit every scheduler reorders.

Following the paper's terminology (§2): an *access* is a read or write
issued by the lowest level cache, one cache line in size.  An access
may require several SDRAM transactions depending on device state.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.dram.channel import RowState
from repro.mapping.base import DecodedAddress


class AccessType(enum.Enum):
    """Read or write, as seen by the memory controller."""

    READ = "read"
    WRITE = "write"


class EnqueueStatus(enum.Enum):
    """Outcome of presenting a new access to the memory system."""

    ACCEPTED = "accepted"
    #: A read hit a queued write; data was forwarded and the read
    #: completed immediately without touching the SDRAM (paper §3.1).
    FORWARDED = "forwarded"
    #: The access pool (or write queue) is full; the CPU must retry.
    REJECTED_FULL = "rejected_full"


# Process-wide access id allocator.  Ids only break ties (completion
# heaps order by (cycle, id)), so all that matters is that relative
# order within a run is preserved.  The counter is settable so that a
# restored snapshot can bump it past every pickled id, keeping new
# allocations strictly younger than every restored access — exactly as
# in the uninterrupted run.
_next_id = 0


def _allocate_id() -> int:
    global _next_id
    value = _next_id
    _next_id += 1
    return value


def peek_next_access_id() -> int:
    """The id the next :class:`MemoryAccess` will receive."""
    return _next_id


def ensure_next_access_id(value: int) -> None:
    """Raise the allocator so future ids are ``>= value`` (never lowers)."""
    global _next_id
    if value > _next_id:
        _next_id = value


class MemoryAccess:
    """One outstanding cache-line read or write.

    Instances are mutable records updated as the access flows through
    the controller; ``__slots__`` keeps them small because simulations
    create hundreds of thousands.  ``is_read`` / ``is_write`` are
    fields mirroring ``type``, set wherever ``type`` is assigned.

    Lifecycle cycle stamps:

    * ``arrival`` — entered the controller queues;
    * ``start_cycle`` — first SDRAM transaction issued (row state is
      classified at this moment, against live bank state);
    * ``complete_cycle`` — last data beat on the SDRAM data bus.

    Latency, as plotted in the paper's Figure 7, is
    ``complete_cycle - arrival``.
    """

    __slots__ = (
        "id",
        "type",
        "is_read",
        "is_write",
        "address",
        "channel",
        "rank",
        "bank",
        "row",
        "column",
        "subarray",
        "arrival",
        "start_cycle",
        "complete_cycle",
        "row_state",
        "forwarded",
        "preempted",
        "piggybacked",
        "source",
    )

    def __init__(
        self,
        type: AccessType,
        address: int,
        decoded: DecodedAddress,
        arrival: int,
        subarray: int = 0,
        source: int = 0,
    ) -> None:
        self.id = _allocate_id()
        self.type = type
        self.is_read = type is AccessType.READ
        self.is_write = not self.is_read
        self.address = address
        self.channel = decoded.channel
        self.rank = decoded.rank
        self.bank = decoded.bank
        self.row = decoded.row
        self.column = decoded.column
        self.subarray = subarray
        self.arrival = arrival
        self.start_cycle: Optional[int] = None
        self.complete_cycle: Optional[int] = None
        self.row_state: Optional[RowState] = None
        self.forwarded = False
        self.preempted = False
        self.piggybacked = False
        #: Tenant / stream id in fleet mode (0 for single-stream runs).
        self.source = source

    @property
    def latency(self) -> Optional[int]:
        """Arrival-to-last-data-beat latency in memory cycles."""
        if self.complete_cycle is None:
            return None
        return self.complete_cycle - self.arrival

    def bank_key(self):
        """Hashable identity of the target bank within the channel."""
        return (self.rank, self.bank)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryAccess(#{self.id} {self.type.value} "
            f"ch{self.channel} r{self.rank} b{self.bank} "
            f"row{self.row} col{self.column} @{self.arrival})"
        )


__all__ = [
    "AccessType",
    "EnqueueStatus",
    "MemoryAccess",
    "ensure_next_access_id",
    "peek_next_access_id",
]
