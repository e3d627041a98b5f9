"""Auto-refresh controllers: all-bank REFab and the per-bank policies.

DDR2 devices require one REFRESH per rank every tREFI on average.  The
paper leans on this in §5.2: *"With static open page policy, most row
empties happen after SDRAM auto refreshes as banks are precharged."*

The controllers own refresh correctness independently of the access
scheduler: when a refresh is due they claim the command bus ahead of
the scheduler, precharge whatever blocks the refresh and then issue it.
Schedulers therefore never see refresh logic — they simply lose a
command slot occasionally, exactly like a real memory controller's
maintenance engine.

Four policies (selected by ``SystemConfig.refresh_policy``):

* :class:`RefreshController` — **REFab**: one REFRESH occupies a whole
  rank for tRFC (the paper's baseline behaviour).
* :class:`PerBankRefresher` — **REFpb**: per-bank refreshes in strict
  JEDEC round-robin order; only the target bank is busy (tRFCpb) and
  consecutive REFpb commands are tRREFD apart (LPDDR semantics).
* :class:`DARPRefresher` — **DARP** (Chang et al., HPCA 2014):
  out-of-order per-bank refresh plus *pull-in* — when a bank is idle
  its future refreshes are issued ahead of schedule (up to
  ``PULL_IN_MAX`` early), and under write-drain pressure refreshes
  co-schedule with the write burst so tRFCpb hides behind it.
* :class:`SARPRefresher` — **SARP** (same paper): subarray-level
  access-refresh parallelism — a REFpb names one subarray and accesses
  to the bank's *other* subarrays proceed during the refresh window.
"""

from __future__ import annotations

from typing import List, Optional

from repro.dram.channel import Channel
from repro.timebase import NEVER


class RefreshController:
    """Issues per-rank auto refreshes on schedule, with bus priority."""

    name = "REFab"

    def bind_scheduler(self, scheduler) -> None:
        """REFab needs no scheduler visibility (see DARP)."""

    def __init__(self, channel: Channel) -> None:
        self.channel = channel
        self.enabled = channel.timing.tREFI is not None
        interval = channel.timing.tREFI or 0
        # Stagger ranks so their refreshes do not collide.
        step = interval // max(len(channel.ranks), 1) if self.enabled else 0
        self._due: List[int] = [
            interval + r * step for r in range(len(channel.ranks))
        ]
        self._min_due = min(self._due) if self.enabled else NEVER
        #: Cycle before which :meth:`tick` provably does nothing (the
        #: next-event fast path skips the call): ``_min_due``, or after
        #: a due tick that issued nothing, ``next_wakeup(cycle + 1)``.
        #: That park is a lower bound on the next action because
        #: ``refresh_pending`` fences activates to the due rank, a
        #: column command only pushes tRTP/tWR later and a precharge
        #: only adds tRP.
        self.idle_until = self._min_due

    def pending_rank(self, cycle: int) -> Optional[int]:
        """The lowest-numbered rank with a refresh due, if any."""
        if not self.enabled:
            return None
        for rank_index, due in enumerate(self._due):
            if cycle >= due:
                return rank_index
        return None

    def next_wakeup(self, cycle: int) -> int:
        """Earliest cycle :meth:`tick` can act, with device state frozen.

        Three self-timed situations (all other progress is triggered by
        commands, which are events in their own right):

        * a rank not yet due wakes when its refresh becomes due — that
          cycle has the side effect of raising ``refresh_pending``,
          which blocks activates, so it must not be skipped;
        * a due rank with open banks wakes when the earliest open bank
          becomes precharge-able;
        * a due rank with all banks idle wakes when the REFRESH command
          itself becomes legal (post-refresh/activate recovery).
        """
        if not self.enabled:
            return NEVER
        if cycle < self._min_due:
            # No rank due yet: the next self-timed event is the
            # earliest due cycle itself.
            return self._min_due
        wake = NEVER
        for rank_index, due in enumerate(self._due):
            if cycle < due:
                wake = min(wake, due)
                continue
            rank = self.channel.ranks[rank_index]
            if rank.all_banks_idle():
                wake = min(wake, rank.next_refresh_ready())
                continue
            for bank in rank.banks:
                if bank.open_row is not None:
                    wake = min(
                        wake,
                        max(
                            bank.next_precharge_ready(),
                            rank.refresh_busy_until,
                        ),
                    )
        return wake

    def tick(self, cycle: int) -> bool:
        """Give the refresh engine first claim on this command slot.

        Returns True when it used the command bus (the scheduler must
        then stay quiet this cycle).
        """
        rank_index = self.pending_rank(cycle)
        if rank_index is None:
            return False
        channel = self.channel
        rank = channel.ranks[rank_index]
        # Block new activates to the rank until its refresh issues, so
        # a steady access stream cannot re-open banks forever and
        # starve the refresh past its tREFI deadline.  The version
        # stamp bumps only on the actual flip (this runs every due
        # cycle) so the schedulers' stamp-cached timing kernel is
        # invalidated exactly when the activate fence changes answer.
        if not rank.refresh_pending:
            rank.refresh_pending = True
            rank.ver += 1
        # Issue directly after checking the bus and the rank/bank
        # registers; Rank.refresh and Bank.precharge still raise
        # ProtocolError on an illegal command.
        if channel.command_bus_free(cycle):
            if rank.all_banks_idle():
                if rank.can_refresh(cycle):
                    channel.issue_refresh(cycle, rank_index)
                    rank.refresh_pending = False
                    rank.ver += 1
                    assert channel.timing.tREFI is not None
                    self._due[rank_index] += channel.timing.tREFI
                    self._min_due = min(self._due)
                    self.idle_until = self._min_due
                    return True
            elif cycle >= rank.refresh_busy_until:
                # Close open banks first; one precharge per cycle.
                for bank in rank.banks:
                    if bank.open_row is not None and bank.can_precharge(
                        cycle
                    ):
                        channel.issue_precharge(cycle, rank_index, bank.index)
                        return True
        self.idle_until = self.next_wakeup(cycle + 1)
        return False


class PerBankRefresher:
    """Per-bank auto refresh (REFpb) in strict JEDEC round-robin order.

    Each bank carries its own due ledger (one REFpb per bank every
    tREFI), staggered across all banks of the channel so the rank-level
    tRREFD spacing rarely binds.  When a bank's refresh is due the bank
    is marked ``refresh_pending`` (the per-bank analogue of the REFab
    starvation fix: new rows stop opening so the bank drains), any
    blocking open row is precharged, and the REFpb issues as soon as it
    is legal — occupying only that bank for tRFCpb while its siblings
    keep serving accesses.
    """

    name = "REFpb"

    #: Refreshes a policy may run ahead of schedule (DARP pull-in),
    #: matching the JEDEC bound of 8 postponed/pulled-in refreshes the
    #: oracle enforces as the 9 x tREFI per-bank deadline.
    PULL_IN_MAX = 8

    def __init__(self, channel: Channel, subarrays: int = 1) -> None:
        self.channel = channel
        timing = channel.timing
        self.interval = timing.tREFI or 0
        self.enabled = (
            timing.tREFI is not None and timing.refpb_recovery > 0
        )
        self.subarrays = max(1, subarrays)
        self.scheduler = None
        banks = channel.banks_per_rank
        total = len(channel.ranks) * banks
        step = self.interval // max(total, 1) if self.enabled else 0
        self._due: List[List[int]] = [
            [
                self.interval + (r * banks + b) * step
                for b in range(banks)
            ]
            for r in range(len(channel.ranks))
        ]
        #: JEDEC round-robin pointer per rank (REFpb order is fixed;
        #: DARP relaxes it — see :meth:`_due_bank`).
        self._rr: List[int] = [0] * len(channel.ranks)
        self._update_min_due()

    def bind_scheduler(self, scheduler) -> None:
        """Give the policy read access to the channel's scheduler.

        Only DARP consults it (per-bank queue occupancy and write-drain
        pressure), but the binding is uniform so the system wires every
        policy the same way.
        """
        self.scheduler = scheduler

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------

    def _target_subarray(self, bank) -> Optional[int]:
        """Subarray the next REFpb of ``bank`` refreshes (None = all)."""
        return None

    def _due_bank(self, rank_index: int, cycle: int) -> Optional[int]:
        """The bank whose deadline refresh should run now, if any.

        Strict JEDEC order: only the round-robin pointer bank may
        refresh, once its due cycle arrives.
        """
        bank = self._rr[rank_index]
        return bank if cycle >= self._due[rank_index][bank] else None

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------

    #: Refresh intervals ahead of the earliest deadline at which
    #: :meth:`tick` may first act (DARP's pull-in windows).
    _idle_lead = 0

    def _update_min_due(self) -> None:
        """Recompute the cached ``min(_due)`` and ``idle_until``.

        ``idle_until`` is the cycle before which :meth:`tick` provably
        does nothing.  It must follow *every* ledger change — including
        DARP pull-ins, which move a due cycle forward ahead of any
        deadline — otherwise the next-event engine could leap past work
        the sequential loop performs.
        """
        if not self.enabled:
            self._min_due = self.idle_until = NEVER
            return
        self._min_due = min(min(row) for row in self._due)
        self.idle_until = self._min_due - self._idle_lead * self.interval

    def _retire(self, rank_index: int, bank_index: int) -> None:
        """Advance the ledgers after a REFpb issued."""
        self._due[rank_index][bank_index] += self.interval
        self._rr[rank_index] = (
            (bank_index + 1) % self.channel.banks_per_rank
        )
        self._update_min_due()

    def tick(self, cycle: int) -> bool:
        """Deadline refresh work; returns True when the bus was used."""
        if not self.enabled:
            return False
        channel = self.channel
        for rank_index, rank in enumerate(channel.ranks):
            bank_index = self._due_bank(rank_index, cycle)
            if bank_index is None:
                continue
            bank = rank.banks[bank_index]
            subarray = self._target_subarray(bank)
            bank.set_refresh_pending(subarray)
            if rank.can_refresh_pb(
                cycle, bank_index, subarray
            ) and channel.command_bus_free(cycle):
                channel.issue_refresh_pb(
                    cycle, rank_index, bank_index, subarray
                )
                self._retire(rank_index, bank_index)
                return True
            if (
                bank.open_row is not None
                and bank._refresh_blocking_row(subarray)
                and channel.command_bus_free(cycle)
                and channel.can_precharge_at(cycle, rank_index, bank_index)
            ):
                channel.issue_precharge(cycle, rank_index, bank_index)
                return True
        return self._opportunistic(cycle)

    def _opportunistic(self, cycle: int) -> bool:
        """Ahead-of-schedule refresh work (DARP pull-in); base: none."""
        return False

    def next_wakeup(self, cycle: int) -> int:
        """Earliest cycle :meth:`tick` can act, with state frozen.

        Per bank: a future due cycle is a wake in its own right (it
        raises ``refresh_pending``); a due bank wakes when its REFpb
        becomes legal, or — when an open row blocks it — when that row
        becomes precharge-able.  Waking early is safe (the tick is a
        no-op); waking late would diverge from the sequential loop.
        """
        if not self.enabled:
            return NEVER
        if cycle < self._min_due:
            return min(self._min_due, self._opportunistic_wakeup(cycle))
        wake = NEVER
        channel = self.channel
        for rank_index, rank in enumerate(channel.ranks):
            for bank_index, due in enumerate(self._due[rank_index]):
                if cycle < due:
                    if due < wake:
                        wake = due
                    continue
                bank = rank.banks[bank_index]
                subarray = self._target_subarray(bank)
                ready = rank.next_refresh_pb_ready(bank_index, subarray)
                if ready == NEVER:
                    ready = bank.next_precharge_ready()
                if ready < wake:
                    wake = ready
        return min(wake, self._opportunistic_wakeup(cycle))

    def _opportunistic_wakeup(self, cycle: int) -> int:
        """Earliest self-timed pull-in action (DARP); base: never."""
        return NEVER


class DARPRefresher(PerBankRefresher):
    """Dynamic access-refresh parallelization (HPCA 2014 DARP).

    Two relaxations over strict REFpb:

    * **Out-of-order deadline service** — among the banks of a rank
      whose refreshes are due, the earliest deadline goes first instead
      of the JEDEC round-robin pointer, so one busy bank cannot head-of-
      line-block its idle siblings' refreshes.
    * **Pull-in** — a bank with no queued work may take future
      refreshes ahead of schedule (up to :attr:`PULL_IN_MAX` early),
      buying itself a refresh-free horizon for when demand returns.
      Under write-drain pressure (the pool's write occupancy at or
      past the Burst_TH threshold) the quiet test relaxes to "no queued
      *writes*": reads are waiting out the drain anyway, so tRFCpb
      hides behind the write burst.
    """

    name = "DARP"

    def _due_bank(self, rank_index: int, cycle: int) -> Optional[int]:
        best = None
        best_due = None
        for bank_index, due in enumerate(self._due[rank_index]):
            if cycle >= due and (best_due is None or due < best_due):
                best, best_due = bank_index, due
        return best

    #: Pull-ins may act long before the earliest deadline: the
    #: cached ``min(_due)`` alone is only an upper bound on the next
    #: action once pull-in windows open, ``PULL_IN_MAX`` intervals
    #: before each due cycle, so the idle horizon retreats by that much.
    _idle_lead = PerBankRefresher.PULL_IN_MAX

    # ------------------------------------------------------------------
    # Pull-in
    # ------------------------------------------------------------------

    def _drain_active(self) -> bool:
        """Write-drain pressure, mechanism-independent.

        Measured at the shared access pool against the configured
        Burst_TH threshold, so every mechanism (including ones with
        internal drain hysteresis) sees one deterministic definition.
        """
        scheduler = self.scheduler
        if scheduler is None:
            return False
        threshold = max(1, scheduler.config.threshold)
        return scheduler.pool.write_count >= threshold

    def _bank_quiet(self, rank_index: int, bank_index: int,
                    drain: bool) -> bool:
        """Whether a bank may donate its slot to an early refresh."""
        scheduler = self.scheduler
        if scheduler is None:
            return False
        if drain:
            return scheduler.bank_queued_writes(rank_index, bank_index) == 0
        return (
            scheduler.bank_queued_reads(rank_index, bank_index) == 0
            and scheduler.bank_queued_writes(rank_index, bank_index) == 0
        )

    def _pull_in_candidates(self, cycle: int):
        """Banks eligible for an early refresh, most urgent first.

        Deterministic order: ascending due cycle, then (rank, bank).
        """
        drain = self._drain_active()
        horizon = self.PULL_IN_MAX * self.interval
        out = []
        for rank_index, rank in enumerate(self.channel.ranks):
            for bank_index, due in enumerate(self._due[rank_index]):
                if cycle >= due or cycle < due - horizon:
                    continue  # due work is deadline work; or topped up
                bank = rank.banks[bank_index]
                if bank.refresh_pending:
                    continue
                if not self._bank_quiet(rank_index, bank_index, drain):
                    continue
                out.append((due, rank_index, bank_index, bank))
        out.sort(key=lambda item: (item[0], item[1], item[2]))
        return out

    def _opportunistic(self, cycle: int) -> bool:
        channel = self.channel
        if not channel.command_bus_free(cycle):
            return False
        for due, rank_index, bank_index, bank in self._pull_in_candidates(
            cycle
        ):
            rank = channel.ranks[rank_index]
            if rank.can_refresh_pb(cycle, bank_index, None):
                channel.issue_refresh_pb(cycle, rank_index, bank_index)
                self._retire(rank_index, bank_index)
                return True
            if bank.open_row is not None and channel.can_precharge_at(
                cycle, rank_index, bank_index
            ):
                # An idle bank holding a stale open row: close it so
                # the pulled-in refresh can proceed.
                channel.issue_precharge(cycle, rank_index, bank_index)
                return True
        return False

    def _opportunistic_wakeup(self, cycle: int) -> int:
        """Earliest legal pull-in action with queues and state frozen.

        Quietness only changes on events (enqueues, commands, read
        completions), all of which wake the next-event engine on their
        own, so candidates are evaluated against current queue state.
        Not-yet-open pull-in windows contribute their opening cycle.
        """
        wake = NEVER
        horizon = self.PULL_IN_MAX * self.interval
        drain = self._drain_active()
        for rank_index, rank in enumerate(self.channel.ranks):
            for bank_index, due in enumerate(self._due[rank_index]):
                if cycle >= due:
                    continue  # deadline path covers it
                bank = rank.banks[bank_index]
                if bank.refresh_pending:
                    continue
                if not self._bank_quiet(rank_index, bank_index, drain):
                    continue
                start = due - horizon
                if cycle < start:
                    if start < wake:
                        wake = start
                    continue
                ready = rank.next_refresh_pb_ready(bank_index, None)
                if ready == NEVER:
                    ready = bank.next_precharge_ready()
                if ready < wake:
                    wake = ready
        return wake


class SARPRefresher(PerBankRefresher):
    """Subarray access-refresh parallelization (HPCA 2014 SARP).

    Deadline order stays strict JEDEC round-robin, but every REFpb
    names one subarray — banks walk their subarrays round-robin via
    ``refresh_pb_count`` — and only that subarray is excluded during
    the tRFCpb window: a row open in a *different* subarray keeps
    serving column accesses, and new activates to other subarrays
    proceed while the refresh runs.
    """

    name = "SARP"

    def _target_subarray(self, bank) -> Optional[int]:
        if self.subarrays <= 1:
            return None
        return bank.refresh_pb_count % self.subarrays


__all__ = [
    "DARPRefresher",
    "PerBankRefresher",
    "RefreshController",
    "SARPRefresher",
]
