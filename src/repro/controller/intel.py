"""Intel's out of order memory scheduling (US patent 7,127,574 —
Rotithor, Osborne & Aboulenein; paper ref [14]).

As summarised by the paper (§4.2): unique read queues per bank and a
single write queue shared by all banks; reads are prioritized over
writes to minimise read latency; once an access is started it receives
the highest priority so it finishes quickly, bounding the degree of
reordering.  Row hits are sought in the read queues only (§5.2), which
is why Intel's row hit rate trails RowHit and Burst_WP.

``Intel_RP`` additionally allows a newly arrived read to preempt a
bank's ongoing write — an extension the paper adds for comparison; the
preempted write restarts later (§4.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.controller.access import MemoryAccess
from repro.controller.base import COLUMN, Scheduler
from repro.controller.flatcore import FlatSlots
from repro.timebase import NEVER

BankKey = Tuple[int, int]


class IntelScheduler(Scheduler):
    """Per-bank read queues, shared write queue, started-first issue."""

    name = "Intel"

    def __init__(self, config, channel, pool, stats, read_preemption=False):
        super().__init__(config, channel, pool, stats)
        self.read_preemption = read_preemption
        if read_preemption:
            self.name = "Intel_RP"
        self._read_queues: Dict[BankKey, List[MemoryAccess]] = {
            (rank, bank): []
            for rank, bank, _ in channel.iter_banks()
        }
        self._write_queue: List[MemoryAccess] = []
        self._ongoing: Dict[BankKey, Optional[MemoryAccess]] = {
            key: None for key in self._read_queues
        }
        self._pending = 0
        # Watermark hysteresis for the shared write queue: hitting
        # capacity enters drain mode (writes take priority everywhere)
        # until occupancy falls back to the low watermark.  This keeps
        # Intel's *saturation time* short — the paper reports 24% on
        # swim versus burst scheduling's 46% — at the cost of stealing
        # read bandwidth in bulk during the drain, which is why Intel
        # trails the other reordering mechanisms in execution time.
        self._drain_mode = False
        self._low_watermark = (3 * pool.write_capacity) // 4
        # Flat mirror of the hot-path state (DESIGN.md §11): slot i is
        # bank (i // banks_per_rank, i % banks_per_rank).  ``_rq``
        # marks nonempty read queues, ``_wq_mask``/``_wq_counts`` track
        # which banks the shared write queue holds writes for, and
        # ``_wmask`` marks slots whose ongoing access is a write (the
        # preemption candidates).  Only ``_schedule_flat`` (fast mode)
        # reads them; the sequential reference path never does.
        self._bpr = channel.banks_per_rank
        self._flat = FlatSlots(channel)
        self._rq = 0
        self._wmask = 0
        self._wq_mask = 0
        self._wq_counts = [0] * self._flat.n

    def _enqueue_read(self, access: MemoryAccess, cycle: int) -> None:
        self._read_queues[access.bank_key()].append(access)
        self._pending += 1
        self._rq |= 1 << (access.rank * self._bpr + access.bank)

    def _enqueue_write(self, access: MemoryAccess, cycle: int) -> None:
        self._write_queue.append(access)
        self._pending += 1
        slot = access.rank * self._bpr + access.bank
        self._wq_counts[slot] += 1
        self._wq_mask |= 1 << slot

    def pending_accesses(self) -> int:
        return self._pending

    def _mech_state(self, ctx) -> dict:
        return {
            "read_queues": [
                [list(key), [ctx.ref(a) for a in queue]]
                for key, queue in self._read_queues.items()
            ],
            "write_queue": [ctx.ref(a) for a in self._write_queue],
            "ongoing": [
                [list(key), ctx.ref_opt(access)]
                for key, access in self._ongoing.items()
            ],
            "pending": self._pending,
            "drain_mode": self._drain_mode,
        }

    def _load_mech_state(self, state: dict, ctx) -> None:
        for key, refs in state["read_queues"]:
            self._read_queues[tuple(key)] = [ctx.get(r) for r in refs]
        self._write_queue = [ctx.get(r) for r in state["write_queue"]]
        for key, ref in state["ongoing"]:
            self._ongoing[tuple(key)] = ctx.get_opt(ref)
        self._pending = state["pending"]
        self._drain_mode = state["drain_mode"]
        self._flat_rebuild()

    # ------------------------------------------------------------------
    # Flat-mirror maintenance (DESIGN.md §11)
    # ------------------------------------------------------------------

    def _flat_set(self, slot: int, access: MemoryAccess) -> None:
        self._flat.install(slot, access)
        if access.is_write:
            self._wmask |= 1 << slot
        else:
            self._wmask &= ~(1 << slot)

    def _flat_clear(self, slot: int) -> None:
        self._flat.clear(slot)
        self._wmask &= ~(1 << slot)

    def _flat_rebuild(self) -> None:
        """Rebuild the flat mirror from the object model (load path)."""
        flat = self._flat
        flat.reset()
        self._rq = 0
        self._wmask = 0
        self._wq_mask = 0
        self._wq_counts = [0] * flat.n
        bpr = self._bpr
        for key, queue in self._read_queues.items():
            if queue:
                self._rq |= 1 << (key[0] * bpr + key[1])
        for access in self._write_queue:
            slot = access.rank * bpr + access.bank
            self._wq_counts[slot] += 1
            self._wq_mask |= 1 << slot
        for key, access in self._ongoing.items():
            if access is not None:
                self._flat_set(key[0] * bpr + key[1], access)

    # ------------------------------------------------------------------
    # Access-level selection
    # ------------------------------------------------------------------

    def _select_read(self, key: BankKey) -> Optional[MemoryAccess]:
        """Oldest row-hit read to the open row, else the oldest read."""
        queue = self._read_queues[key]
        if not queue:
            return None
        rank, bank = key
        open_row = self.channel.ranks[rank].banks[bank].open_row
        if open_row is not None:
            for access in queue:
                if access.row == open_row:
                    return access
        return queue[0]

    def _select_write_for(self, key: BankKey) -> Optional[MemoryAccess]:
        """The head of the shared write queue, if it targets ``key``.

        The single write queue drains in order from its head: only one
        write is a candidate at a time, so writes to different banks
        never drain in parallel.  This serialisation — a consequence
        of the patent's single shared write queue — is a key reason
        Intel's scheduling trails burst scheduling's per-bank write
        queues when the write queue backs up.
        """
        for access in self._write_queue:
            if self.write_is_war_blocked(access):
                continue
            if any(
                o is access for o in self._ongoing.values() if o is not None
            ):
                return None
            return access if access.bank_key() == key else None
        return None

    def _select_any_write_for(self, key: BankKey) -> Optional[MemoryAccess]:
        """Oldest drainable write aimed at ``key`` (emergency drain)."""
        for access in self._write_queue:
            if access.bank_key() != key:
                continue
            if self.write_is_war_blocked(access):
                continue
            return access
        return None

    def _update_ongoing(self) -> None:
        """Refill empty bank slots; apply read preemption if enabled.

        Reads come first, but a bank with no queued reads drains the
        oldest shared-queue write aimed at it — Intel is opportunistic
        per bank, which is why its write queue saturates less than
        burst scheduling's (24% vs 46% on swim, §5.1) at the price of
        write traffic interleaving with other banks' reads.  A full
        write queue forces writes ahead of reads everywhere.
        """
        if self.pool.write_queue_full:
            self._drain_mode = True
        elif self.pool.write_count <= self._low_watermark:
            self._drain_mode = False
        force_writes = self._drain_mode
        for key, ongoing in self._ongoing.items():
            if (
                self.read_preemption
                and ongoing is not None
                and ongoing.is_write
                and self._read_queues[key]
                and not force_writes
            ):
                # The write has not transferred data yet (it would have
                # left the ongoing slot), so it simply returns to the
                # write queue; bank state it created persists.
                ongoing.preempted = True
                self.stats.preemptions += 1
                self._ongoing[key] = ongoing = None
            if ongoing is not None:
                continue
            if force_writes:
                # Emergency drain: a full write queue stalls the CPU,
                # so every bank drains its oldest write in parallel.
                selected = self._select_any_write_for(
                    key
                ) or self._select_read(key)
            else:
                selected = self._select_read(key) or self._select_write_for(
                    key
                )
            self._ongoing[key] = selected

    def next_wakeup(self, cycle: int) -> int:
        """Exact wakeup: earliest any bank's ongoing access can issue.

        Safe because :meth:`_update_ongoing` is at a fixpoint after a
        quiet pass: drain-mode hysteresis recomputes identically from
        the frozen pool occupancy, a preemption cannot recur (the slot
        was refilled with a read), and refills are pure functions of
        frozen queue and bank state.  A bank left empty is waiting on
        an event — a read arriving, the shared write-queue head
        draining elsewhere, or a WAR-clearing completion from this
        scheduler's own heap.
        """
        wake = self._completions[0][0] if self._completions else NEVER
        if not self._pending:
            return wake
        for access in self._ongoing.values():
            if access is None:
                continue
            candidate = self.earliest_issue_cycle(access, cycle)
            if candidate < wake:
                wake = candidate
        return wake

    # ------------------------------------------------------------------
    # Transaction-level issue: started accesses first, then oldest
    # ------------------------------------------------------------------

    def schedule(self, cycle: int) -> None:
        # Fast mode goes through the flat mirror (same selection, same
        # priorities, property-tested byte-identical); this body is the
        # readable sequential reference.
        if self._want_hint:
            self._schedule_flat(cycle)
            return
        self._update_ongoing()
        candidates = [a for a in self._ongoing.values() if a is not None]
        if not candidates:
            return
        candidates.sort(
            key=lambda a: (
                a.start_cycle is None,
                a.arrival if a.start_cycle is None else a.start_cycle,
            )
        )
        for access in candidates:
            if not self.can_issue_access(access, cycle):
                continue
            kind = self.issue_for(access, cycle)
            if kind is COLUMN:
                key = access.bank_key()
                self._ongoing[key] = None
                if access.is_read:
                    self._read_queues[key].remove(access)
                else:
                    self._write_queue.remove(access)
                self._pending -= 1
            return

    def _schedule_flat(self, cycle: int) -> None:
        """Fast-mode pass over the flat mirror.

        Byte-identical to the sequential body by construction:

        * the refill only visits slots with material and no ongoing
          access (a bitset), and resolves the shared write queue's
          head *once* per pass — valid because ``_ongoing[k]`` always
          targets bank ``k`` (every refill filters on ``bank_key``),
          so "is the queue head already started" is one identity
          check, and only the head's own bank can ever receive it;
        * candidate selection replaces the stable sort + first-
          issuable scan with a single min over issuable slots of the
          composed key ``(unstarted, start-or-arrival, slot)`` — the
          same total order the sort produces, ties resolved by slot
          exactly as the insertion-ordered candidate list did;
        * earliests come from the stamp-cached timing kernel
          (:meth:`_flat_earliest`); the blocked candidates' min lands
          in ``_pass_wake`` so gate arming needs no separate
          :meth:`next_wakeup` scan.
        """
        # The drain hysteresis folds over the *global* pool occupancy,
        # which other channels move while this one idles — update it on
        # every executed pass (the gate's write_version stamp guarantees
        # a pass runs whenever the count changes), even with nothing
        # pending, or the stored mode goes stale versus the object path.
        pool = self.pool
        if pool.write_count >= pool.write_capacity:  # write_queue_full
            self._drain_mode = True
        elif pool.write_count <= self._low_watermark:
            self._drain_mode = False
        if not self._pending:
            self._pass_wake = NEVER
            return
        force_writes = self._drain_mode
        flat = self._flat
        acc = flat.acc
        keys = flat.keys
        ongoing = self._ongoing
        if self.read_preemption and not force_writes:
            m = self._wmask & self._rq
            while m:
                b = m & -m
                m ^= b
                i = b.bit_length() - 1
                a = acc[i]
                a.preempted = True
                self.stats.preemptions += 1
                ongoing[keys[i]] = None
                self._flat_clear(i)
        need = (self._rq | self._wq_mask) & ~flat.occupied
        if need:
            if force_writes:
                # Emergency drain: every bank takes its oldest
                # drainable write; one queue scan builds them all.
                drain = None
                m = need
                while m:
                    b = m & -m
                    m ^= b
                    i = b.bit_length() - 1
                    if drain is None:
                        drain = {}
                        rba = self._reads_by_addr
                        bpr = self._bpr
                        for w in self._write_queue:
                            slot = w.rank * bpr + w.bank
                            if slot not in drain and not rba.get(w.address):
                                drain[slot] = w
                    selected = drain.get(i)
                    if selected is None:
                        selected = self._select_read(keys[i])
                    if selected is not None:
                        ongoing[keys[i]] = selected
                        self._flat_set(i, selected)
            else:
                # The shared queue drains in order from its first
                # non-WAR write; if that write is already started it
                # blocks the queue for everyone.
                head = None
                head_slot = -1
                rba = self._reads_by_addr
                for w in self._write_queue:
                    if not rba.get(w.address):
                        head = w
                        break
                if head is not None:
                    head_slot = head.rank * self._bpr + head.bank
                    if ongoing[keys[head_slot]] is head:
                        head = None
                        head_slot = -1
                m = need
                while m:
                    b = m & -m
                    m ^= b
                    i = b.bit_length() - 1
                    selected = self._select_read(keys[i])
                    if selected is None and i == head_slot:
                        selected = head
                    if selected is not None:
                        ongoing[keys[i]] = selected
                        self._flat_set(i, selected)
        occ = flat.occupied
        if not occ:
            self._pass_wake = NEVER
            return
        earliest = self._flat_earliest
        slot_bits = flat._slot_bits
        unstarted_bias = 1 << 61
        best_key = 0
        best_i = -1
        wake = NEVER
        m = occ
        while m:
            b = m & -m
            m ^= b
            i = b.bit_length() - 1
            a = acc[i]
            t = earliest(flat, i, a, cycle)
            if t <= cycle:
                sc = a.start_cycle
                if sc is None:
                    k = unstarted_bias | (a.arrival << slot_bits) | i
                else:
                    k = (sc << slot_bits) | i
                if best_i < 0 or k < best_key:
                    best_key = k
                    best_i = i
            elif t < wake:
                wake = t
        if best_i < 0:
            self._pass_wake = wake
            return
        i = best_i
        a = acc[i]
        kind = self.issue_for(a, cycle)
        if kind is COLUMN:
            key = keys[i]
            ongoing[key] = None
            self._flat_clear(i)
            if a.is_read:
                queue = self._read_queues[key]
                queue.remove(a)
                if not queue:
                    self._rq &= ~(1 << i)
            else:
                self._write_queue.remove(a)
                count = self._wq_counts[i] - 1
                self._wq_counts[i] = count
                if not count:
                    self._wq_mask &= ~(1 << i)
            self._pending -= 1


__all__ = ["IntelScheduler"]
