"""Flat-array scheduler core: bitsets, age matrix, stamp-cached timing.

The schedulers' hot path (DESIGN.md §11) keeps a *flat* mirror of the
per-bank candidate state next to the object model: one slot per bank of
the owning channel, parallel integer arrays indexed by slot, and plain
int bitmasks over slots.  The object model stays authoritative — the
flat mirror is a cache — but a fast-mode schedule pass touches only:

* ``occupied`` — a bitset of slots whose bank has an ongoing candidate,
  so empty banks cost nothing (O(set bits), not O(banks));
* ``kind``/``core`` + version stamps — the cached device-timing part of
  each candidate's earliest-issue cycle, recomputed only when the
  owning :class:`~repro.dram.bank.Bank` / :class:`~repro.dram.rank.Rank`
  write-version (``ver``) moved since it was stamped;
* ``age_row`` — a hardware-style age matrix (one bitmask row per slot
  holding the strictly-older occupied slots) so "oldest of this
  candidate set" is an O(popcount) pick with no key comparisons.

Age keys compose ``(is_write, arrival, slot)`` into a single int, so
equal-age ties (same arrival, same direction) break toward the lowest
slot — exactly the stable-``min``-over-``iter_banks``-order the object
path computes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dram.channel import Channel

#: Cached candidate kinds (string constants cost an import cycle here).
KIND_COLUMN = 1
KIND_PRECHARGE = 2
KIND_ACTIVATE = 3


def numpy_enabled() -> bool:
    """Always False: the simulator never imports numpy.

    Kept only because the benchmark harness (``perfbench/run.py``)
    imports and calls it during set-up; nothing in ``src/`` calls it.
    """
    return False


class FlatSlots:
    """Per-channel flat candidate arrays plus the age matrix.

    One slot per bank, numbered ``rank_index * banks_per_rank +
    bank_index`` — the exact order :meth:`Channel.iter_banks` yields, so
    ascending-bit iteration over any slot mask visits banks in the same
    order every object-path loop does.
    """

    __slots__ = (
        "n",
        "keys",
        "rank_mask",
        "banks",
        "ranks",
        "acc",
        "kind",
        "core",
        "bstamp",
        "rstamp",
        "age_key",
        "age_row",
        "occupied",
        "_slot_bits",
    )

    def __init__(self, channel: Channel) -> None:
        banks_per_rank = channel.banks_per_rank
        n = len(channel.ranks) * banks_per_rank
        self.n = n
        self.keys: List[Tuple[int, int]] = []
        self.rank_mask: Dict[int, int] = {}
        self.banks = []
        self.ranks = []
        for rank_index, bank_index, bank in channel.iter_banks():
            slot = len(self.keys)
            assert slot == rank_index * banks_per_rank + bank_index
            self.keys.append((rank_index, bank_index))
            self.rank_mask[rank_index] = (
                self.rank_mask.get(rank_index, 0) | (1 << slot)
            )
            self.banks.append(bank)
            self.ranks.append(channel.ranks[rank_index])
        #: Bits needed to pack a slot index into the low end of a key.
        self._slot_bits = max(n - 1, 1).bit_length()
        self.acc: List[Optional[object]] = [None] * n
        self.kind = [0] * n
        self.core = [0] * n
        self.bstamp = [-1] * n
        self.rstamp = [-1] * n
        self.age_key = [0] * n
        self.age_row = [0] * n
        self.occupied = 0

    def install(self, slot: int, access) -> None:
        """Bind ``access`` to ``slot`` and splice it into the age matrix.

        O(occupied slots): the new slot's age row is built from the
        composed keys, and every other occupied row gets its bit for
        this slot set or cleared — a cleared slot may have left stale
        bits behind (see :meth:`clear`), so both directions are written
        explicitly.
        """
        self.acc[slot] = access
        self.bstamp[slot] = -1  # device ver is never negative: recompute
        bit = 1 << slot
        key = (
            ((1 if access.is_write else 0) << 61)
            | (access.arrival << self._slot_bits)
            | slot
        )
        self.age_key[slot] = key
        keys = self.age_key
        rows = self.age_row
        row = 0
        m = self.occupied & ~bit
        while m:
            b = m & -m
            j = b.bit_length() - 1
            m ^= b
            if keys[j] < key:
                row |= b  # j is strictly older than the new candidate
                rows[j] &= ~bit
            else:
                rows[j] |= bit  # the new candidate is older than j
        rows[slot] = row
        self.occupied |= bit

    def bind(self, slot: int, access) -> None:
        """:meth:`install` without the age-matrix splice.

        For mechanisms whose candidate order is structural (FIFO heads
        served round-robin) rather than age-based: only occupancy and
        the timing-cache invalidation matter, so binding is O(1).
        Never mix :meth:`bind` and :meth:`oldest` on the same instance
        — bound slots have no age row.
        """
        self.acc[slot] = access
        self.bstamp[slot] = -1  # device ver is never negative: recompute
        self.occupied |= 1 << slot

    def clear(self, slot: int) -> None:
        """Free ``slot`` in O(1).

        Other rows may keep a stale bit for this slot; that is safe
        because every age-matrix query masks rows with the *current*
        candidate set (a subset of ``occupied``), and :meth:`install`
        rewrites the bit in every occupied row before the slot can
        reappear in a query.
        """
        self.acc[slot] = None
        self.occupied &= ~(1 << slot)

    def oldest(self, mask: int) -> int:
        """Slot of the oldest candidate in ``mask`` (must be nonzero).

        A candidate is oldest exactly when no *other mask member* is
        older — i.e. its age row intersects the mask nowhere.  This is
        the hardware age-matrix read-out: one AND per member, no key
        comparisons.
        """
        rows = self.age_row
        m = mask
        while m:
            b = m & -m
            if not rows[b.bit_length() - 1] & mask:
                return b.bit_length() - 1
            m ^= b
        raise AssertionError("oldest() called with an empty mask")


__all__ = [
    "FlatSlots",
    "KIND_ACTIVATE",
    "KIND_COLUMN",
    "KIND_PRECHARGE",
    "numpy_enabled",
]
