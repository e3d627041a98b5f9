"""Row hit first scheduling (Rixner et al., ISCA 2000 — paper ref [13]).

One *unified* access queue per bank holds reads and writes together;
the bank serves the oldest access directed to the currently open row
first (a row hit), falling back to the oldest access overall.  Banks
are served round robin.  Reads and writes are treated equally, which
is why the paper finds RowHit attains the lowest write latency of all
mechanisms but a higher read latency than burst scheduling (§5.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.controller.access import MemoryAccess
from repro.controller.base import COLUMN, Scheduler
from repro.controller.flatcore import FlatSlots
from repro.timebase import NEVER

BankKey = Tuple[int, int]


class RowHitScheduler(Scheduler):
    """Oldest row hit first within a bank, round robin between banks."""

    name = "RowHit"

    #: Selection (oldest hit to the live open row, WAR guard) reads
    #: only own-channel state; the shared pool never influences a
    #: pass, so the no-op gate survives other channels' writes.
    pool_sensitive = False

    def __init__(self, config, channel, pool, stats) -> None:
        super().__init__(config, channel, pool, stats)
        self._queues: Dict[BankKey, List[MemoryAccess]] = {
            (rank, bank): []
            for rank, bank, _ in channel.iter_banks()
        }
        self._ongoing: Dict[BankKey, Optional[MemoryAccess]] = {
            key: None for key in self._queues
        }
        self._bank_keys: List[BankKey] = list(self._queues)
        self._rr = 0
        self._pending = 0
        # Flat mirror of _ongoing plus a nonempty-queue bitset: the
        # fast pass keeps the sequential fill-on-visit order (the
        # selection reads live open-row state) but skips empty banks
        # wholesale and stamp-caches each ongoing access's timing.
        self._flat = FlatSlots(channel)
        self._bpr = channel.banks_per_rank
        self._occq = 0

    def _enqueue_read(self, access: MemoryAccess, cycle: int) -> None:
        self._queues[access.bank_key()].append(access)
        self._occq |= 1 << (access.rank * self._bpr + access.bank)
        self._pending += 1

    def _enqueue_write(self, access: MemoryAccess, cycle: int) -> None:
        self._queues[access.bank_key()].append(access)
        self._occq |= 1 << (access.rank * self._bpr + access.bank)
        self._pending += 1

    def pending_accesses(self) -> int:
        return self._pending

    # ------------------------------------------------------------------
    # Selection: the "row hit first" policy
    # ------------------------------------------------------------------

    def _select(self, key: BankKey) -> Optional[MemoryAccess]:
        """Oldest row hit to the open row, else the oldest access.

        Queues are kept in arrival order, so a linear scan finds the
        oldest hit.  WAR-blocked writes are skipped — the older read to
        the same address is in this very queue and must go first.
        """
        queue = self._queues[key]
        if not queue:
            return None
        rank, bank = key
        open_row = self.channel.ranks[rank].banks[bank].open_row
        fallback = None
        for access in queue:
            if access.is_write and self.write_is_war_blocked(access):
                continue
            if fallback is None:
                fallback = access
            if open_row is not None and access.row == open_row:
                return access
        return fallback

    def next_wakeup(self, cycle: int) -> int:
        """Exact wakeup: earliest any bank's ongoing access can issue.

        Safe because a quiet :meth:`schedule` pass reaches a fixpoint:
        every bank with selectable material holds an ongoing access
        (:meth:`_select` is pure and sticky — it fills each empty slot
        on the full scan a quiet cycle performs), and a bank left
        without one has only WAR-blocked writes queued, unblocked by a
        read completion sitting in this scheduler's completion heap.
        """
        wake = self._completions[0][0] if self._completions else NEVER
        if not self._pending:
            return wake
        for key in self._bank_keys:
            access = self._ongoing[key]
            if access is None:
                continue
            candidate = self.earliest_issue_cycle(access, cycle)
            if candidate < wake:
                wake = candidate
        return wake

    def schedule(self, cycle: int) -> None:
        if self._want_hint:
            self._schedule_flat(cycle)
            return
        keys = self._bank_keys
        n = len(keys)
        for offset in range(n):
            index = (self._rr + offset) % n
            key = keys[index]
            ongoing = self._ongoing[key]
            if ongoing is None:
                ongoing = self._select(key)
                if ongoing is None:
                    continue
                self._ongoing[key] = ongoing
                self._flat.bind(index, ongoing)
            if not self.can_issue_access(ongoing, cycle):
                continue
            kind = self.issue_for(ongoing, cycle)
            if kind is COLUMN:
                queue = self._queues[key]
                queue.remove(ongoing)
                self._ongoing[key] = None
                self._flat.clear(index)
                if not queue:
                    self._occq &= ~(1 << index)
                self._pending -= 1
                self._rr = (index + 1) % n
            return

    def _schedule_flat(self, cycle: int) -> None:
        """Fast-mode pass: same fill-on-visit scan over a bitset.

        Byte-identical to the sequential body: nonempty banks are
        visited in the same rotated round-robin order (``_select`` must
        run *during* the scan — it reads live open-row state — so only
        the empty-bank skips and the stamp-cached timing differ).  An
        ongoing access always sits in its own bank's queue, so the
        nonempty-queue bitset covers every bank the object path would
        consider.  A no-issue scan leaves the blocked candidates' min
        in ``_pass_wake``; banks whose material is entirely WAR-blocked
        contribute nothing — only their older reads' completions (in
        this scheduler's own heap) can unblock them.
        """
        occq = self._occq
        if not occq:
            self._pass_wake = NEVER
            return
        flat = self._flat
        acc = flat.acc
        keys = flat.keys
        rr = self._rr
        wake = NEVER
        high = occq >> rr << rr  # slots >= rr, then the wrapped rest
        for m in (high, occq ^ high):
            while m:
                b = m & -m
                m ^= b
                i = b.bit_length() - 1
                ongoing = acc[i]
                if ongoing is None:
                    ongoing = self._select(keys[i])
                    if ongoing is None:
                        continue
                    self._ongoing[keys[i]] = ongoing
                    flat.bind(i, ongoing)
                t = self._flat_earliest(flat, i, ongoing, cycle)
                if t > cycle:
                    if t < wake:
                        wake = t
                    continue
                kind = self.issue_for(ongoing, cycle)
                if kind is COLUMN:
                    key = keys[i]
                    queue = self._queues[key]
                    queue.remove(ongoing)
                    self._ongoing[key] = None
                    flat.clear(i)
                    if not queue:
                        self._occq &= ~b
                    self._pending -= 1
                    self._rr = (i + 1) % flat.n
                return
        self._pass_wake = wake


__all__ = ["RowHitScheduler"]
