"""Bank in order scheduling — the paper's baseline (Table 3/4).

``BkInOrder`` keeps one FIFO queue per bank: accesses within a bank are
performed strictly in arrival order, while banks are served round
robin.  Transactions of accesses in *different* banks still pipeline on
the split-transaction buses (precharges and activates overlap data
transfers), but no access ever passes another to the same bank — so
row conflicts are never turned into row hits.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.controller.access import MemoryAccess
from repro.controller.base import COLUMN, Scheduler
from repro.controller.flatcore import FlatSlots
from repro.timebase import NEVER

BankKey = Tuple[int, int]


class BkInOrderScheduler(Scheduler):
    """In order within each bank, round robin between banks."""

    name = "BkInOrder"

    #: Selection reads only own-channel queues and device state — the
    #: shared pool never influences a pass, so the no-op gate survives
    #: other channels' write traffic.
    pool_sensitive = False

    def __init__(self, config, channel, pool, stats) -> None:
        super().__init__(config, channel, pool, stats)
        self._queues: Dict[BankKey, Deque[MemoryAccess]] = {
            (rank, bank): deque()
            for rank, bank, _ in channel.iter_banks()
        }
        self._bank_keys: List[BankKey] = list(self._queues)
        self._rr = 0
        self._pending = 0
        # Flat mirror of the queue heads: the candidate set IS the set
        # of nonempty queues, so the fast pass walks an occupancy
        # bitset with stamp-cached timing instead of every bank dict.
        self._flat = FlatSlots(channel)
        self._bpr = channel.banks_per_rank

    def _enqueue_read(self, access: MemoryAccess, cycle: int) -> None:
        queue = self._queues[access.bank_key()]
        queue.append(access)
        if len(queue) == 1:
            self._flat.bind(access.rank * self._bpr + access.bank, access)
        self._pending += 1

    def _enqueue_write(self, access: MemoryAccess, cycle: int) -> None:
        queue = self._queues[access.bank_key()]
        queue.append(access)
        if len(queue) == 1:
            self._flat.bind(access.rank * self._bpr + access.bank, access)
        self._pending += 1

    def pending_accesses(self) -> int:
        return self._pending

    def next_wakeup(self, cycle: int) -> int:
        """Exact wakeup: earliest any head-of-queue can issue.

        Safe because :meth:`schedule` mutates nothing on a cycle where
        no transaction issues — the candidate set is exactly the queue
        heads, and each head's earliest legal cycle is computable from
        frozen device state.  A WAR-blocked write head (``NEVER``) is
        unblocked by its older read's data return, which sits in this
        scheduler's completion heap.
        """
        wake = self._completions[0][0] if self._completions else NEVER
        if not self._pending:
            return wake
        for key in self._bank_keys:
            queue = self._queues[key]
            if not queue:
                continue
            candidate = self.earliest_issue_cycle(queue[0], cycle)
            if candidate < wake:
                wake = candidate
        return wake

    def schedule(self, cycle: int) -> None:
        """Issue the first unblocked head-of-queue transaction.

        The scan starts at the round-robin pointer so every bank gets
        an equal share of command slots; the pointer advances past a
        bank when its current access's data transfer is scheduled.
        """
        if self._want_hint:
            self._schedule_flat(cycle)
            return
        keys = self._bank_keys
        n = len(keys)
        for offset in range(n):
            index = (self._rr + offset) % n
            queue = self._queues[keys[index]]
            if not queue:
                continue
            head = queue[0]
            # Strict order: even a WAR-blocked write head simply waits
            # (its older same-address read is ahead of it anyway).
            if not self.can_issue_access(head, cycle):
                continue
            kind = self.issue_for(head, cycle)
            if kind is COLUMN:
                queue.popleft()
                self._pending -= 1
                if queue:
                    self._flat.bind(index, queue[0])
                else:
                    self._flat.clear(index)
                self._rr = (index + 1) % n
            return
        self._pass_wake = -1

    def _schedule_flat(self, cycle: int) -> None:
        """Fast-mode pass: the same round-robin scan over a bitset.

        Byte-identical to the sequential body — occupied slots ARE the
        nonempty queues, visited in the same rotated order, and each
        head's stamp-cached earliest-issue cycle is the exact mirror
        of ``can_issue_access``.  A no-issue scan leaves the blocked
        heads' min in ``_pass_wake`` to arm the no-op schedule gate.
        """
        flat = self._flat
        occ = flat.occupied
        if not occ:
            self._pass_wake = NEVER
            return
        acc = flat.acc
        rr = self._rr
        wake = NEVER
        high = occ >> rr << rr  # slots >= rr, then the wrapped rest
        for m in (high, occ ^ high):
            while m:
                b = m & -m
                m ^= b
                i = b.bit_length() - 1
                head = acc[i]
                t = self._flat_earliest(flat, i, head, cycle)
                if t > cycle:
                    if t < wake:
                        wake = t
                    continue
                kind = self.issue_for(head, cycle)
                if kind is COLUMN:
                    queue = self._queues[flat.keys[i]]
                    queue.popleft()
                    self._pending -= 1
                    if queue:
                        flat.bind(i, queue[0])
                    else:
                        flat.clear(i)
                    self._rr = (i + 1) % flat.n
                return
        self._pass_wake = wake


__all__ = ["BkInOrderScheduler"]
