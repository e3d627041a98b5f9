"""Scheduler abstract base class and shared controller machinery.

Every access reordering mechanism — the baselines here and burst
scheduling in :mod:`repro.core` — subclasses :class:`Scheduler` and
implements three hooks:

* ``_enqueue_read`` / ``_enqueue_write`` — place a new access into the
  mechanism's queue structure;
* ``schedule`` — issue at most one SDRAM command this cycle.

The base class centralises everything the paper treats as common
infrastructure so the mechanisms differ *only* in ordering policy:

* write-queue hit detection with data forwarding (RAW, paper §3.1/3.4);
* write-after-read blocking so no mechanism can commit a write past an
  older read to the same address (WAR, §3.4);
* row hit/conflict/empty classification at first-transaction time;
* latency bookkeeping and the completion queue;
* the open-page / close-page-autoprecharge row policy (Table 1).
"""

from __future__ import annotations

import abc
import heapq
from typing import Dict, List, Tuple

from repro.controller.access import EnqueueStatus, MemoryAccess
from repro.controller.flatcore import KIND_ACTIVATE, KIND_COLUMN, KIND_PRECHARGE
from repro.controller.pool import AccessPool
from repro.controller.rowpolicy import RowPolicyPredictor
from repro.dram.channel import Channel, RowState
from repro.sim.config import (
    CLOSE_PAGE_AUTOPRECHARGE,
    PREDICTIVE,
    SystemConfig,
)
from repro.timebase import NEVER
from repro.sim.stats import SimStats

#: Transaction kinds a scheduler decides between for an ongoing access.
COLUMN = "column"
PRECHARGE = "precharge"
ACTIVATE = "activate"

#: An access's first transaction kind is its row state (§2): the row
#: is open (hit), another row is open (conflict) or the bank is
#: precharged (empty).
_ROW_STATE_OF_KIND = {
    COLUMN: RowState.HIT,
    PRECHARGE: RowState.CONFLICT,
    ACTIVATE: RowState.EMPTY,
}


class Scheduler(abc.ABC):
    """Base class for per-channel access reordering mechanisms."""

    #: Registry name; overridden by subclasses (paper Table 4).
    name = "abstract"

    #: Does a schedule pass read *global* pool state (write occupancy
    #: thresholds, drain watermarks)?  When False the no-op schedule
    #: gate ignores ``pool.write_version`` — other channels' write
    #: traffic cannot change this mechanism's decisions, so the gate
    #: survives it.  Own-channel material always breaks the gate via
    #: ``_gate_cmds`` regardless.  Only set False after checking every
    #: path reachable from ``schedule()`` for pool reads.
    pool_sensitive = True

    def __init__(
        self,
        config: SystemConfig,
        channel: Channel,
        pool: AccessPool,
        stats: SimStats,
    ) -> None:
        self.config = config
        self.channel = channel
        self.pool = pool
        self.stats = stats
        self.auto_precharge = config.row_policy == CLOSE_PAGE_AUTOPRECHARGE
        #: Optional dynamic open/close predictor (paper ref [22]).
        self.row_predictor = (
            RowPolicyPredictor() if config.row_policy == PREDICTIVE else None
        )
        # Completion queue of (complete_cycle, access_id, access).
        self._completions: List[Tuple[int, int, MemoryAccess]] = []
        # Per-bank occupancy counters (slot = rank * banks + bank):
        # reads/writes admitted to this channel and not yet retired
        # from the pool.  The DARP refresher consults these to pick
        # idle banks for refresh pull-in; they mirror pool membership
        # exactly (incremented beside ``pool.add``, decremented beside
        # ``pool.remove``).
        self._banks_per_rank = len(channel.ranks[0].banks)
        slots = len(channel.ranks) * self._banks_per_rank
        self._bank_reads = [0] * slots
        self._bank_writes = [0] * slots
        # Pending-address indexes for RAW forwarding and WAR blocking.
        self._writes_by_addr: Dict[int, List[MemoryAccess]] = {}
        self._reads_by_addr: Dict[int, int] = {}
        # Schedule-pass gate (next-event engine).  A no-issue pass over
        # *frozen* scheduler-visible state is a proven no-op until
        # ``_gate_until``.  Frozen means: no command on this channel
        # (``_gate_cmds`` stamps ``channel.cmd_bus_cycles``), no write
        # entered or retired the shared pool anywhere (``_gate_pool``
        # stamps ``pool.write_version``), and none of this scheduler's
        # own events fired — enqueues and read completions clear
        # ``_gate_cmds`` directly.  ``MemorySystem.tick`` arms and
        # checks the gate only on the fast path; with
        # ``REPRO_FASTFWD=0`` everything here stays disarmed.
        self._gate_until = -1
        self._gate_cmds = -1
        self._gate_pool = -1
        #: Set by ``MemorySystem.tick`` before a schedule pass whose
        #: predecessor already ran over the same frozen state: the
        #: mechanism should min-track, over its blocked candidates,
        #: the earliest cycle one could issue and leave it in
        #: ``_pass_wake``.  Mechanisms that do not implement hint
        #: tracking simply ignore both fields and the gate arming
        #: falls back to a :meth:`next_wakeup` call.
        self._want_hint = False
        self._pass_wake = -1
        # Timing locals for the timing kernel (attribute chains cost).
        timing = channel.timing
        self._tCL = timing.tCL
        self._tCWL = timing.tCWL
        self._tRTRS = timing.tRTRS
        self._tFAW = timing.tFAW
        #: True on bank-group devices (DDR4/DDR5): the kernel's column
        #: branch must also consult ``Rank.column_gate`` (tCCD_L /
        #: tWTR_L).  Hoisted so single-group devices pay one boolean.
        self._bg = timing.bank_groups > 1

    # ------------------------------------------------------------------
    # Enqueue path (paper Figure 4 for burst scheduling; the write-queue
    # search is common to every mechanism with a write buffer)
    # ------------------------------------------------------------------

    def admits(self, access: MemoryAccess, cycle: int) -> bool:
        """Mechanism-level admission control (QoS quota hook).

        Consulted by :class:`~repro.controller.system.MemorySystem`
        alongside the pool capacity check; returning False rejects the
        access exactly like a full pool (``REJECTED_FULL``, no side
        effects), so the CPU/driver retries later.  The default admits
        everything — only the QoS variant ``Burst_QW`` overrides this.
        """
        return True

    def enqueue(self, access: MemoryAccess, cycle: int) -> EnqueueStatus:
        """Admit ``access``; pool capacity was already checked upstream."""
        if access.is_read:
            queued = self._writes_by_addr.get(access.address)
            if queued:
                # Forward the latest write's data; the read completes
                # immediately and never occupies the pool (§3.1).
                access.forwarded = True
                access.complete_cycle = cycle
                self.stats.forwarded_reads += 1
                self.stats.for_source(access.source).forwarded_reads += 1
                return EnqueueStatus.FORWARDED
            self.pool.add(access)
            self._reads_by_addr[access.address] = (
                self._reads_by_addr.get(access.address, 0) + 1
            )
            self._bank_reads[
                access.rank * self._banks_per_rank + access.bank
            ] += 1
            self._enqueue_read(access, cycle)
            self._gate_cmds = -1  # new material: gate + freeze broken
            return EnqueueStatus.ACCEPTED
        self.pool.add(access)
        self._writes_by_addr.setdefault(access.address, []).append(access)
        self._bank_writes[
            access.rank * self._banks_per_rank + access.bank
        ] += 1
        self._enqueue_write(access, cycle)
        self._gate_cmds = -1
        return EnqueueStatus.ACCEPTED

    def bank_queued_reads(self, rank: int, bank: int) -> int:
        """Reads admitted for ``(rank, bank)`` and not yet retired."""
        return self._bank_reads[rank * self._banks_per_rank + bank]

    def bank_queued_writes(self, rank: int, bank: int) -> int:
        """Writes admitted for ``(rank, bank)`` and not yet retired."""
        return self._bank_writes[rank * self._banks_per_rank + bank]

    # ------------------------------------------------------------------
    # Hooks for concrete mechanisms
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _enqueue_read(self, access: MemoryAccess, cycle: int) -> None:
        """Insert a (non-forwarded) read into the queue structure."""

    @abc.abstractmethod
    def _enqueue_write(self, access: MemoryAccess, cycle: int) -> None:
        """Insert a write into the queue structure."""

    @abc.abstractmethod
    def schedule(self, cycle: int) -> None:
        """Issue at most one SDRAM command on the channel this cycle."""

    @abc.abstractmethod
    def pending_accesses(self) -> int:
        """Accesses still queued (drain condition for simulations)."""

    # ------------------------------------------------------------------
    # Next-event engine hook
    # ------------------------------------------------------------------

    def next_wakeup(self, cycle: int) -> int:
        """Earliest cycle this scheduler's observable state can change.

        Called by the next-event engine only after a *quiet* cycle (no
        command issued, no completion delivered, no enqueue accepted
        anywhere), when every queue and device register is frozen; the
        engine then leaps straight to the minimum wakeup across all
        components.  Returning ``cycle`` itself means "I might act on
        the very next executed cycle" and suppresses any skip.

        The conservative default keeps every mechanism correct without
        a per-mechanism analysis: with work queued the scheduler is
        assumed ready to act next cycle; otherwise only an in-flight
        read's data return can change its state.  Mechanisms whose
        selection state provably reaches a fixpoint on a quiet cycle
        override this with exact per-access wakeups (see DESIGN.md §9).
        """
        if self.pending_accesses() > 0:
            return cycle
        if self._completions:
            return self._completions[0][0]
        return NEVER

    # ------------------------------------------------------------------
    # The timing kernel: "when can this access's next command issue"
    # ------------------------------------------------------------------
    # Written once, in two halves: the device half (next command kind +
    # bank/rank readiness) only moves when a command or refresh touches
    # the owning bank or rank, so the flat passes cache it; the
    # per-pass half (WAR blocking + data-bus turnaround) moves with
    # *other* banks' traffic and runs on every call.  Every gate is a
    # monotone threshold on the cycle number, so with device state
    # frozen the result is exact: ``earliest <= cycle`` is precisely
    # :meth:`can_issue_access`.  ``NEVER`` means only an *event* can
    # unblock the transaction — a WAR-blocked write column (cleared by
    # the older read's completion) or an activate fenced off by a
    # pending refresh (cleared when the refresh engine issues).

    def _device_earliest(self, bank, rank, access) -> Tuple[int, int]:
        """Device half of the kernel: ``(kind, core)``.

        ``kind`` is the next transaction (``KIND_*``); ``core`` the
        first cycle the bank/rank timing gates allow it.
        """
        row = bank.open_row
        if row == access.row:
            kind = KIND_COLUMN
            core = bank.ready_column
            if access.is_read and rank.ready_read > core:
                core = rank.ready_read
            if self._bg:
                gate = rank.column_gate(bank.index, access.is_read)
                if gate > core:
                    core = gate
        elif row is not None:
            kind = KIND_PRECHARGE
            core = bank.ready_precharge
        elif rank.refresh_pending or (
            bank.refresh_pending
            and (
                bank.pending_subarray is None
                or bank.pending_subarray == access.subarray
            )
        ):
            # A refresh is due on the rank, or a per-bank refresh in
            # this bank (its subarray under SARP): activates are
            # fenced until the refresh issues.
            return KIND_ACTIVATE, NEVER
        else:
            kind = KIND_ACTIVATE
            core = rank.ready_activate
            if bank.ready_activate > core:
                core = bank.ready_activate
            pb_busy = bank.refresh_busy_until
            if pb_busy > core and (
                bank.refreshing_subarray is None
                or bank.refreshing_subarray == access.subarray
            ):
                core = pb_busy  # open per-bank refresh window
            tFAW = self._tFAW
            if tFAW is not None:
                times = rank._activate_times
                if len(times) == 4 and times[0] + tFAW > core:
                    core = times[0] + tFAW
        if rank.refresh_busy_until > core:
            core = rank.refresh_busy_until
        return kind, core

    def earliest_issue_cycle(self, access: MemoryAccess, cycle: int) -> int:
        """First cycle :meth:`can_issue_access` can turn true for
        ``access``, assuming no command issues in between (the timing
        kernel's uncached entry)."""
        return self._flat_earliest(None, 0, access, cycle)

    def _flat_earliest(self, flat, i: int, access, cycle: int) -> int:
        """The timing kernel; cached through ``flat`` slot ``i``.

        With a flat mirror the device half is kept in
        ``flat.kind[i]``/``flat.core[i]`` under the owning bank's and
        rank's write-version stamps, so on most passes a candidate
        costs a couple of list reads; callers read ``flat.kind[i]``
        afterwards for the transaction kind.  ``flat=None`` is the
        uncached entry (:meth:`earliest_issue_cycle`).  The per-pass
        half runs on every call.
        """
        if flat is None:
            rank = self.channel.ranks[access.rank]
            kind, core = self._device_earliest(
                rank.banks[access.bank], rank, access
            )
        else:
            bank = flat.banks[i]
            rank = flat.ranks[i]
            if flat.bstamp[i] == bank.ver and flat.rstamp[i] == rank.ver:
                kind = flat.kind[i]
                core = flat.core[i]
            else:
                kind, core = self._device_earliest(bank, rank, access)
                flat.kind[i] = kind
                flat.core[i] = core
                flat.bstamp[i] = bank.ver
                flat.rstamp[i] = rank.ver
        if kind != KIND_COLUMN:
            return core if core > cycle else cycle
        # Per-pass half: WAR blocking + data-bus turnaround.
        is_read = access.is_read
        if not is_read and self._reads_by_addr.get(access.address):
            return NEVER  # WAR: only the read's completion unblocks
        channel = self.channel
        bus_rank = channel._last_data_rank
        if bus_rank is None:
            gap = 0
        elif bus_rank != access.rank:
            gap = self._tRTRS
        elif channel._last_data_is_read is not is_read:
            gap = 1
        else:
            gap = 0
        t = channel.data_busy_until + gap - (
            self._tCL if is_read else self._tCWL
        )
        if core > t:
            t = core
        return t if t > cycle else cycle

    # ------------------------------------------------------------------
    # Shared transaction helpers
    # ------------------------------------------------------------------

    def next_command_kind(self, access: MemoryAccess) -> str:
        """Which transaction ``access`` needs next, from bank state."""
        bank = self.channel.ranks[access.rank].banks[access.bank]
        if bank.open_row == access.row:
            return COLUMN
        if bank.open_row is not None:
            return PRECHARGE
        return ACTIVATE

    def can_issue_access(self, access: MemoryAccess, cycle: int) -> bool:
        """Is the access's next transaction unblocked (paper §3.3)?

        Includes the WAR guard: a write's column access may not issue
        while an older read to the same address is still queued.
        """
        kind = self.next_command_kind(access)
        channel = self.channel
        if kind is COLUMN:
            if access.is_write and self._reads_by_addr.get(access.address):
                return False
            return channel.can_column_at(
                cycle, access.rank, access.bank, access.row, access.is_read
            )
        if kind is PRECHARGE:
            return channel.can_precharge_at(cycle, access.rank, access.bank)
        return channel.can_activate_at(
            cycle, access.rank, access.bank, access.row
        )

    def issue_for(self, access: MemoryAccess, cycle: int) -> str:
        """Issue the access's next transaction; returns its kind.

        On the first transaction the access is classified as row hit /
        conflict / empty against live bank state (§5.2's discussion of
        preemption-induced row empties relies on this being live).
        When the transaction is the column access, latency bookkeeping
        runs and the access is finished from the queue's perspective.
        """
        kind = self.next_command_kind(access)
        if access.start_cycle is None:
            access.start_cycle = cycle
            access.row_state = _ROW_STATE_OF_KIND[kind]
            self.stats.row_states[access.row_state] += 1
            self.stats.for_source(access.source).row_states[
                access.row_state
            ] += 1
            if self.row_predictor is not None:
                self.row_predictor.observe(access, access.row_state)
        if kind is COLUMN:
            auto_precharge = self.auto_precharge
            if self.row_predictor is not None and self.row_predictor.should_close(
                access.rank, access.bank
            ):
                auto_precharge = True
                self.row_predictor.note_closed(
                    access.rank, access.bank, access.row
                )
            data_end = self.channel.issue_column(
                cycle,
                access.rank,
                access.bank,
                access.row,
                access.is_read,
                auto_precharge,
                column=access.column,
                source=access.source,
            )
            access.complete_cycle = data_end
            self.stats.for_source(access.source).data_bus_cycles += (
                self.channel.timing.data_cycles
            )
            heapq.heappush(
                self._completions, (data_end, access.id, access)
            )
            if access.is_write:
                self._finish_write_bookkeeping(access)
        elif kind is PRECHARGE:
            self.channel.issue_precharge(
                cycle, access.rank, access.bank, source=access.source
            )
        else:
            self.channel.issue_activate(
                cycle, access.rank, access.bank, access.row,
                source=access.source,
            )
        return kind

    def _finish_write_bookkeeping(self, access: MemoryAccess) -> None:
        """Drop a write from the pool/indexes once its column issued."""
        queued = self._writes_by_addr.get(access.address)
        if queued:
            queued.remove(access)
            if not queued:
                del self._writes_by_addr[access.address]
        self.pool.remove(access)
        self._bank_writes[
            access.rank * self._banks_per_rank + access.bank
        ] -= 1
        latency = access.complete_cycle - access.arrival
        self.stats.write_latency.add(latency)
        self.stats.completed_writes += 1
        per_source = self.stats.for_source(access.source)
        per_source.write_latency.add(latency)
        per_source.completed_writes += 1
        if access.piggybacked:
            self.stats.piggybacked_writes += 1

    def _finish_read_bookkeeping(self, access: MemoryAccess) -> None:
        """Drop a read from the pool/indexes at its data return."""
        count = self._reads_by_addr.get(access.address, 0)
        if count <= 1:
            self._reads_by_addr.pop(access.address, None)
        else:
            self._reads_by_addr[access.address] = count - 1
        self.pool.remove(access)
        self._bank_reads[
            access.rank * self._banks_per_rank + access.bank
        ] -= 1
        latency = access.complete_cycle - access.arrival
        self.stats.read_latency.add(latency)
        self.stats.completed_reads += 1
        per_source = self.stats.for_source(access.source)
        per_source.read_latencies.add(latency)
        per_source.completed_reads += 1

    def write_is_war_blocked(self, access: MemoryAccess) -> bool:
        """True when an older read to the same address is still queued.

        Mechanisms must not select such a write as a bank's ongoing
        access ahead of the read — the column-level WAR guard would
        stall it against a read waiting in the very same queue,
        deadlocking the bank.
        """
        return bool(self._reads_by_addr.get(access.address))

    def pop_completions(self, cycle: int) -> List[MemoryAccess]:
        """Reads whose data arrived by ``cycle`` (responses to the CPU).

        Writes were answered at enqueue (posted); their internal
        completion already ran in :meth:`issue_for`.
        """
        done: List[MemoryAccess] = []
        heap = self._completions
        while heap and heap[0][0] <= cycle:
            _, _, access = heapq.heappop(heap)
            if access.is_read:
                self._finish_read_bookkeeping(access)
                if (
                    self._on_read_complete(access)
                    or access.address in self._writes_by_addr
                ):
                    # Selection state changed, or a queued write to
                    # this address may be WAR-released: break the gate.
                    self._gate_cmds = -1
                done.append(access)
        return done

    def _on_read_complete(self, access: MemoryAccess) -> bool:
        """Hook: a read's data has returned (subclass bookkeeping).

        Returns whether a schedule pass could now decide differently,
        which breaks the no-op schedule gate.  Every mechanism but
        burst scheduling keeps the safe default.
        """
        return True


__all__ = ["ACTIVATE", "COLUMN", "PRECHARGE", "Scheduler"]
