"""The burst scheduling access reordering mechanism (paper §3).

This module wires the three subroutines of the paper's algorithm:

* *access enter queue* (Figure 4) — runs in ``_enqueue_read`` /
  ``_enqueue_write`` on top of the base class's write-queue search;
* *bank arbiter* (Figure 5) — :meth:`BurstScheduler._arbitrate`, one
  invocation per bank per cycle, selecting each bank's ongoing access
  with read preemption and write piggybacking controlled by the static
  threshold;
* *transaction scheduler* (Table 2 / Figure 6) —
  :meth:`BurstScheduler.schedule`, issuing one unblocked transaction
  per cycle by static priority.

The four paper variants (Table 4) are the four settings of the two
flags ``read_preemption`` and ``write_piggybacking``; each setting
fixes the threshold by the §5.4 rule (Burst_RP ≡ TH = write-queue
size, Burst_WP ≡ TH0, Burst_TH and Burst use ``config.threshold``)
and the name (:attr:`BurstScheduler.name`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.controller.access import MemoryAccess
from repro.controller.base import COLUMN, Scheduler
from repro.controller.flatcore import KIND_COLUMN, FlatSlots
from repro.core.burst import BurstQueue
from repro.timebase import NEVER

BankKey = Tuple[int, int]


class BurstScheduler(Scheduler):
    """Two-level burst scheduling with optional RP/WP and threshold."""

    def __init__(
        self,
        config,
        channel,
        pool,
        stats,
        read_preemption: bool = False,
        write_piggybacking: bool = False,
        use_priority_table: bool = True,
    ) -> None:
        super().__init__(config, channel, pool, stats)
        self.read_preemption = read_preemption
        self.write_piggybacking = write_piggybacking
        #: Ablation switch: False replaces the Table 2 / Figure 6
        #: transaction priority with naive round-robin issue — the
        #: "best effort" scheduling the paper criticises in §4.2.
        self.use_priority_table = use_priority_table
        self._rr = 0
        # §5.4: read preemption alone is TH = write-queue size, write
        # piggybacking alone is TH0; with both (or neither) the
        # configured threshold applies.
        if read_preemption and not write_piggybacking:
            self.threshold = config.write_queue_size
        elif write_piggybacking and not read_preemption:
            self.threshold = 0
        else:
            self.threshold = config.threshold
        self._read_queues: Dict[BankKey, BurstQueue] = {
            (rank, bank): BurstQueue()
            for rank, bank, _ in channel.iter_banks()
        }
        self._write_queues: Dict[BankKey, List[MemoryAccess]] = {
            key: [] for key in self._read_queues
        }
        self._ongoing: Dict[BankKey, Optional[MemoryAccess]] = {
            key: None for key in self._read_queues
        }
        # Figure 5 line 4, "last access was an end of burst": True
        # whenever the bank is *not* mid way through serving a read
        # burst.  Completed writes keep it True, which is what lets
        # piggybacking chain row-hit writes into write bursts and
        # "exploit the locality of row hits from writes" (§3.2).
        self._end_of_burst: Dict[BankKey, bool] = {
            key: True for key in self._read_queues
        }
        self._bank_keys: List[BankKey] = list(self._read_queues)
        # Banks with any queued or ongoing access.  schedule() iterates
        # _bank_keys filtered by this set instead of rebuilding full
        # candidate scans over every (mostly empty) bank each cycle;
        # filtering against the fixed key order preserves the original
        # scan order, which the oldest-first tie-breaks depend on.
        self._active_keys = set()
        self._last_bank: Optional[BankKey] = None
        self._last_rank: Optional[int] = None
        self._pending = 0
        # Reads outstanding across all banks of this channel (queued
        # or data in flight).  Figure 5 line 6 ("write queue is not
        # empty and read queue is empty") is evaluated against the
        # whole read queue: burst scheduling is "more aggressive in
        # prioritizing reads over writes than Intel" (§5.1),
        # postponing writes as long as *any* read is outstanding —
        # which is what drives its write queue to saturate 46% of the
        # time on swim.
        self._outstanding_reads = 0
        # Flat mirror of the hot-path state (DESIGN.md §11): slot i is
        # bank ``_bank_keys[i]``; ``_mat``/``_rq`` mirror _active_keys
        # and the nonempty read queues as bitsets, ``_wmask`` marks
        # slots whose ongoing access is a write (the RP candidates),
        # and ``_flat`` caches each ongoing access's next transaction
        # kind + device-timing earliest against Bank/Rank version
        # stamps.  Only ``_schedule_flat`` (fast mode) reads them; the
        # sequential reference path below never does.
        self._bpr = channel.banks_per_rank
        self._flat = FlatSlots(channel)
        self._mat = 0
        self._rq = 0
        self._wmask = 0

    @property
    def name(self) -> str:
        """The Table 4 name the two flags select (``Burst_TH52``).

        Subclasses that name themselves (``Burst_DYN``, ...) shadow
        this with a class attribute.
        """
        if self.read_preemption and self.write_piggybacking:
            return f"Burst_TH{self.threshold}"
        if self.read_preemption:
            return "Burst_RP"
        if self.write_piggybacking:
            return "Burst_WP"
        return "Burst"

    # ------------------------------------------------------------------
    # Access enter queue subroutine (Figure 4)
    # ------------------------------------------------------------------
    # The write-queue hit search and forwarding (lines 1-4) run in
    # Scheduler.enqueue before these hooks are reached.

    def _enqueue_read(self, access: MemoryAccess, cycle: int) -> None:
        key = access.bank_key()
        self._read_queues[key].add_read(access)
        self._active_keys.add(key)
        self._pending += 1
        self._outstanding_reads += 1
        bit = 1 << (access.rank * self._bpr + access.bank)
        self._mat |= bit
        self._rq |= bit

    def _enqueue_write(self, access: MemoryAccess, cycle: int) -> None:
        key = access.bank_key()
        self._write_queues[key].append(access)
        self._active_keys.add(key)
        self._pending += 1
        self._mat |= 1 << (access.rank * self._bpr + access.bank)

    def pending_accesses(self) -> int:
        return self._pending

    def _on_read_complete(self, access: MemoryAccess) -> bool:
        # A pass reads completions only through Figure 5 line 6 (no
        # outstanding reads) and WAR blocking, which the caller checks.
        self._outstanding_reads -= 1
        return self._outstanding_reads == 0

    # ------------------------------------------------------------------
    # Bank arbiter subroutine (Figure 5)
    # ------------------------------------------------------------------

    def _oldest_write(self, key: BankKey) -> Optional[MemoryAccess]:
        """Oldest write of this bank that is not WAR-blocked."""
        for access in self._write_queues[key]:
            if not self.write_is_war_blocked(access):
                return access
        return None

    def _oldest_row_hit_write(self, key: BankKey) -> Optional[MemoryAccess]:
        """Oldest write hitting the currently open row (piggyback
        candidate — it must not disturb the burst's row, §3.2)."""
        rank, bank = key
        open_row = self.channel.ranks[rank].banks[bank].open_row
        if open_row is None:
            return None
        for access in self._write_queues[key]:
            if access.row == open_row and not self.write_is_war_blocked(
                access
            ):
                return access
        return None

    def _write_pressure(self) -> bool:
        """Figure 5 line 2's "write queue is full" signal.

        The QoS write-quota variant widens this to "any tenant is at
        its quota" — for one tenant the quota IS the whole queue, so
        the base signal is the degenerate case.
        """
        pool = self.pool
        return pool.write_count >= pool.write_capacity

    def _pressure_write(self, key: BankKey) -> Optional[MemoryAccess]:
        """The write line 3 drains while :meth:`_write_pressure` holds.

        The paper drains the oldest write of the bank; the QoS
        write-quota variant narrows this to the blocking tenant's
        writes so the drain actually frees the quota that raised the
        pressure.
        """
        return self._oldest_write(key)

    def _arbitrate(self, key: BankKey) -> None:
        """One bank-arbiter step; mirrors Figure 5 line by line."""
        ongoing = self._ongoing[key]
        reads = self._read_queues[key]
        writes = self._write_queues[key]
        write_occupancy = self.pool.write_count
        if ongoing is None:
            selected: Optional[MemoryAccess] = None
            if self._write_pressure():                     # line 2
                selected = self._pressure_write(key)       # line 3
            # Paper §4/§5.4 boundary: WP engages when the write queue
            # occupancy is *at or above* the threshold, RP only below
            # it — at exactly TH the queue is considered saturated
            # enough that writes piggyback and reads stop preempting.
            # (Pinned by a directed 51/52/53-of-64 boundary test.)
            if (
                selected is None
                and self.write_piggybacking                # line 4
                and write_occupancy >= self.threshold
                and self._end_of_burst[key]
            ):
                selected = self._oldest_row_hit_write(key)  # line 5
                if selected is not None:
                    selected.piggybacked = True
            if (
                selected is None
                and writes
                and self._outstanding_reads == 0            # line 6
            ):
                selected = self._oldest_write(key)          # line 7
            if selected is None and reads.bursts:
                selected = reads.bursts[0].accesses[0]      # line 8
                self._end_of_burst[key] = False
            self._ongoing[key] = selected
        elif (
            self.read_preemption                            # line 9
            and ongoing.is_write
            and reads
            and write_occupancy < self.threshold
        ):
            # Line 10-11: the write returns to the write queue (it was
            # never removed); any precharge/activate it already did
            # persists in bank state, so the preempting read may find a
            # row empty (§5.2).
            ongoing.preempted = True
            self.stats.preemptions += 1
            self._ongoing[key] = reads.bursts[0].accesses[0]
            self._end_of_burst[key] = False

    # ------------------------------------------------------------------
    # Transaction scheduler subroutine (Table 2 / Figure 6)
    # ------------------------------------------------------------------

    def _issue_and_retire(self, key: BankKey, access: MemoryAccess,
                          cycle: int) -> None:
        """Issue the next transaction; on column access retire it."""
        kind = self.issue_for(access, cycle)
        self._last_bank = key
        self._last_rank = key[0]
        if kind is COLUMN:
            self._retire_column(key, access)

    def _retire_column(self, key: BankKey, access: MemoryAccess) -> None:
        """Drop an access from its queue once its data is scheduled."""
        self._ongoing[key] = None
        slot = key[0] * self._bpr + key[1]
        self._flat_clear(slot)
        self._pending -= 1
        if access.is_read:
            queue = self._read_queues[key]
            ended = queue.finish_head_read()
            if ended:
                self._end_of_burst[key] = True
                self.stats.burst_sizes.add(queue.last_completed_size)
            if not queue.bursts:
                self._rq &= ~(1 << slot)
        else:
            # A completed write leaves the bank at a burst boundary;
            # further row-hit writes may keep piggybacking (§3.2).
            self._write_queues[key].remove(access)
            self._end_of_burst[key] = True
        if not self._read_queues[key].bursts and not self._write_queues[key]:
            self._active_keys.discard(key)
            self._mat &= ~(1 << slot)

    # ------------------------------------------------------------------
    # Flat-mirror maintenance (DESIGN.md §11)
    # ------------------------------------------------------------------

    def _flat_set(self, slot: int, access: MemoryAccess) -> None:
        """Bind ``access`` as slot's ongoing candidate in the mirror."""
        self._flat.install(slot, access)
        if access.is_write:
            self._wmask |= 1 << slot
        else:
            self._wmask &= ~(1 << slot)

    def _flat_clear(self, slot: int) -> None:
        self._flat.clear(slot)
        self._wmask &= ~(1 << slot)

    def next_wakeup(self, cycle: int) -> int:
        """Exact wakeup: the earliest any ongoing access can issue.

        Safe because after a quiet schedule() pass the Figure 5
        arbiter is at a fixpoint: every bank with issuable material
        holds an ongoing access (line 8 always selects when reads are
        queued), a bank left without one is waiting on an *event*
        (last outstanding read completing, write queue filling), and
        re-running the arbiter with frozen inputs selects nothing new
        and never preempts (DESIGN.md §9).  Data returns of in-flight
        reads are events of their own via the completion queue.
        """
        wake = self._completions[0][0] if self._completions else NEVER
        if not self._pending:
            return wake
        ongoing = self._ongoing
        for key in self._active_keys:
            access = ongoing[key]
            if access is None:
                continue
            candidate = self.earliest_issue_cycle(access, cycle)
            if candidate < wake:
                wake = candidate
        return wake

    def schedule(self, cycle: int) -> None:
        # Fast mode goes through the flat mirror: same arbiter, same
        # priorities, O(set bits) instead of O(banks) with cached
        # timing.  The sequential reference body below is the
        # readable, object-walking statement of Table 2 / Figure 6
        # that the flat pass is property-tested against.
        if self._want_hint and self.use_priority_table:
            self._schedule_flat(cycle)
            return
        if not self._pending:
            self._pass_wake = NEVER
            return  # nothing queued or ongoing anywhere
        active = self._active_keys
        for key in self._bank_keys:
            if key in active:
                self._arbitrate(key)
        if not self.use_priority_table:
            self._pass_wake = -1  # ablation path computes no hint
            self._schedule_naive(cycle)
            return

        # Gather each bank's ongoing access with its next transaction
        # kind and unblocked status (paper §3.3).
        ongoing = self._ongoing
        unblocked: List[Tuple[BankKey, MemoryAccess, str]] = []
        for key in self._bank_keys:
            if key not in active:
                continue
            access = ongoing[key]
            if access is None:
                continue
            if self.can_issue_access(access, cycle):
                unblocked.append((key, access, self.next_command_kind(access)))
        if not unblocked:
            self._pass_wake = -1
            # Figure 6 lines 14-15: point the scheduler at the bank
            # holding the oldest ongoing access so its rank is favoured
            # next cycle.
            oldest = None
            for key in self._bank_keys:
                if key not in active:
                    continue
                access = ongoing[key]
                if access is not None and (
                    oldest is None or access.arrival < oldest[1].arrival
                ):
                    oldest = (key, access)
            if oldest is not None:
                self._last_bank = oldest[0]
                self._last_rank = oldest[0][0]
            return

        def age(entry):
            _, access, _ = entry
            return (access.is_write, access.arrival)

        # 1: unblocked column access in the last bank.
        for entry in unblocked:
            key, access, kind = entry
            if kind is COLUMN and key == self._last_bank:
                self._issue_and_retire(key, access, cycle)
                return
        # 2: oldest unblocked column access in the last rank.
        same_rank = [
            e for e in unblocked
            if e[2] is COLUMN and e[0][0] == self._last_rank
        ]
        if same_rank:
            key, access, _ = min(same_rank, key=age)
            self._issue_and_retire(key, access, cycle)
            return
        # 3: oldest unblocked precharge or row activate (no data bus).
        overhead = [e for e in unblocked if e[2] is not COLUMN]
        if overhead:
            key, access, _ = min(overhead, key=age)
            self._issue_and_retire(key, access, cycle)
            return
        # 4: oldest unblocked column access in other ranks.
        key, access, _ = min(unblocked, key=age)
        self._issue_and_retire(key, access, cycle)

    def _schedule_flat(self, cycle: int) -> None:
        """Fast-mode transaction scheduler over the flat mirror.

        Semantically identical to the sequential body of
        :meth:`schedule` — same Figure 5 arbiter, same Table 2 /
        Figure 6 priorities, property-tested byte-identical — but:

        * the arbiter runs only for slots it can actually change
          (no ongoing access, or a preemptible write-ongoing slot with
          queued reads while RP is armed);
        * each candidate's earliest-issue cycle comes from the
          stamp-cached timing kernel (:meth:`_flat_earliest`);
        * ``earliest <= cycle`` classifies candidates into column /
          overhead bitsets, and the priority picks resolve through the
          age matrix instead of ``min()`` over tuples;
        * the min of blocked candidates' earliests, tracked inline,
          lands in ``_pass_wake``, arming the schedule gate exactly.
        """
        if not self._pending:
            self._pass_wake = NEVER
            return
        flat = self._flat
        acc = flat.acc
        keys = flat.keys
        ongoing = self._ongoing
        # Figure 5 arbiter, restricted to the slots it can change.
        need = self._mat & ~flat.occupied
        if self.read_preemption and self.pool.write_count < self.threshold:
            need |= self._wmask & self._rq
        while need:
            b = need & -need
            need ^= b
            i = b.bit_length() - 1
            key = keys[i]
            self._arbitrate(key)
            a = ongoing[key]
            if a is not acc[i]:
                if a is None:
                    self._flat_clear(i)
                else:
                    self._flat_set(i, a)
        kinds = flat.kind
        earliest = self._flat_earliest
        col_mask = 0
        ovh_mask = 0
        wake = NEVER
        oldest_i = -1
        oldest_arr = 0
        m = flat.occupied
        while m:
            b = m & -m
            m ^= b
            i = b.bit_length() - 1
            a = acc[i]
            t = earliest(flat, i, a, cycle)
            if t <= cycle:
                if kinds[i] == KIND_COLUMN:
                    col_mask |= b
                else:
                    ovh_mask |= b
            elif t < wake:
                wake = t
            arr = a.arrival
            if oldest_i < 0 or arr < oldest_arr:
                oldest_i = i
                oldest_arr = arr
        if not (col_mask | ovh_mask):
            self._pass_wake = wake
            # Figure 6 lines 14-15: favour the oldest ongoing access's
            # bank/rank next cycle.
            if oldest_i >= 0:
                key = keys[oldest_i]
                self._last_bank = key
                self._last_rank = key[0]
            return
        # 1: unblocked column access in the last bank.
        last_bank = self._last_bank
        if last_bank is not None:
            i = last_bank[0] * self._bpr + last_bank[1]
            if col_mask & (1 << i):
                self._issue_and_retire(last_bank, acc[i], cycle)
                return
        # 2: oldest unblocked column access in the last rank.
        last_rank = self._last_rank
        if last_rank is not None:
            pick = col_mask & flat.rank_mask[last_rank]
            if pick:
                i = flat.oldest(pick)
                self._issue_and_retire(keys[i], acc[i], cycle)
                return
        # 3: oldest unblocked precharge or row activate (no data bus).
        if ovh_mask:
            i = flat.oldest(ovh_mask)
            self._issue_and_retire(keys[i], acc[i], cycle)
            return
        # 4: oldest unblocked column access in other ranks.
        i = flat.oldest(col_mask)
        self._issue_and_retire(keys[i], acc[i], cycle)

    def _schedule_naive(self, cycle: int) -> None:
        """Ablation: naive round-robin transaction issue.

        Each bank's ongoing access still comes from the Figure 5
        arbiter, but transactions are issued by scanning banks round
        robin and firing the first unblocked one — no column-first,
        rank-affinity or read-over-write priorities.  This is the
        "best effort" issue style the paper attributes to RowHit and
        Intel (§4.2); the priority-table ablation benchmark measures
        what Table 2 is worth.
        """
        keys = self._bank_keys
        n = len(keys)
        for offset in range(n):
            index = (self._rr + offset) % n
            key = keys[index]
            access = self._ongoing[key]
            if access is None:
                continue
            if not self.can_issue_access(access, cycle):
                continue
            kind = self.issue_for(access, cycle)
            if kind is COLUMN:
                self._retire_column(key, access)
                self._rr = (index + 1) % n
            return


__all__ = ["BurstScheduler"]
