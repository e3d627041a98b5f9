"""SDRAM rank: a set of banks sharing inter-bank timing constraints.

A rank is the set of devices selected together by one chip select
(§2 of the paper).  Beyond containing its banks, a rank enforces:

* **tRRD** — minimum spacing between activates to different banks.
* **tFAW** — at most four activates in any rolling tFAW window.
* **tWTR** — write data must finish tWTR before a read command to the
  same rank (the internal write-to-read turnaround).
* **refresh** — a REFRESH occupies the whole rank for tRFC and requires
  every bank precharged.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.dram.bank import Bank, BankState
from repro.dram.timing import TimingParams
from repro.errors import ProtocolError
from repro.timebase import NEVER


class Rank:
    """Banks plus the rank-wide activation/turnaround bookkeeping."""

    def __init__(
        self,
        timing: TimingParams,
        index: int,
        banks: int,
        subarray_rows: Optional[int] = None,
    ) -> None:
        if banks <= 0:
            raise ProtocolError(f"rank {index}: bank count must be positive")
        self.timing = timing
        self.index = index
        self.banks: List[Bank] = [
            Bank(timing, b, subarray_rows) for b in range(banks)
        ]
        self.ready_activate = 0          # tRRD / post-refresh gate
        self.ready_read = 0              # tWTR (short) gate
        self._activate_times: Deque[int] = deque(maxlen=4)
        #: Bank-group split column gates (DDR4/DDR5).  Banks stripe
        #: across groups by ``bank_index % bank_groups``.  Inert —
        #: never consulted or advanced — when the device has a single
        #: bank group, so the pre-DDR4 hot paths are unchanged.
        self.bank_groups = timing.bank_groups
        self.ready_column_any = 0                          # tCCD_S gate
        self.ready_column_group = [0] * self.bank_groups   # tCCD_L gates
        self.ready_read_group = [0] * self.bank_groups     # tWTR_L gates
        #: Write-version stamp for the rank-wide gates above (and
        #: ``refresh_pending`` below): bumped on every mutation so the
        #: schedulers' flat-array caches can validate cached
        #: earliest-issue values without re-reading any rank state.
        #: The refresh controller bumps it when it flips
        #: ``refresh_pending``.  Not serialized (caches rebuild).
        self.ver = 0
        self.refresh_count = 0
        self.refresh_busy_until = 0
        #: Set by the refresh controller while a REFRESH is due: new
        #: activates are blocked so in-flight rows drain and the rank
        #: reaches all-banks-idle — without this, a steady access
        #: stream can re-open banks forever and starve refresh past
        #: its deadline (found by the protocol oracle).
        self.refresh_pending = False
        #: tRREFD gate: earliest cycle the next per-bank refresh
        #: command may issue on this rank.
        self.refpb_ready = 0

    # ------------------------------------------------------------------
    # Legality
    # ------------------------------------------------------------------

    def can_activate(
        self, cycle: int, bank: int, row: Optional[int] = None
    ) -> bool:
        """True when bank ``bank`` may activate, counting rank limits.

        ``row`` (when known) lets the bank refine its per-bank refresh
        gates to the row's subarray (SARP).
        """
        if not self._activate_clear(cycle):
            return False
        target = self.banks[bank]
        return target.can_activate(cycle, target.subarray_of(row))

    def _activate_clear(self, cycle: int) -> bool:
        """The rank's half of :meth:`can_activate`: refresh fence, tRRD
        and tFAW (the bank checks its own half when it applies)."""
        if self.refresh_pending or cycle < self.ready_activate:
            return False
        return not (
            self.timing.tFAW is not None
            and len(self._activate_times) == 4
            and cycle < self._activate_times[0] + self.timing.tFAW
        )

    def can_column(self, cycle: int, bank: int, row: int, is_read: bool) -> bool:
        """True when a column to ``row`` clears the rank's and bank's gates."""
        if not self._column_clear(cycle, bank, is_read):
            return False
        return self.banks[bank].can_column(cycle, row)

    def _column_clear(self, cycle: int, bank: int, is_read: bool) -> bool:
        """The rank's half of :meth:`can_column`: tWTR and the bank-group
        gates (the bank checks its own half when it applies)."""
        if is_read and cycle < self.ready_read:
            return False
        return not (
            self.bank_groups > 1 and cycle < self.column_gate(bank, is_read)
        )

    def column_gate(self, bank: int, is_read: bool) -> int:
        """Earliest cycle the bank-group gates allow a column to ``bank``.

        Combines the rank-wide tCCD_S floor, the tCCD_L gap from the
        last column to ``bank``'s group, and (for reads) the tWTR_L
        turnaround from the last write to that group.  Only meaningful
        on devices with ``bank_groups > 1``; single-group callers skip
        the call entirely (every gate would be zero).
        """
        group = bank % self.bank_groups
        ready = self.ready_column_any
        same_group = self.ready_column_group[group]
        if same_group > ready:
            ready = same_group
        if is_read:
            turnaround = self.ready_read_group[group]
            if turnaround > ready:
                ready = turnaround
        return ready

    def can_precharge(self, cycle: int, bank: int) -> bool:
        return self.banks[bank].can_precharge(cycle)

    def all_banks_idle(self) -> bool:
        """True when every bank is precharged (refresh precondition)."""
        for bank in self.banks:
            if bank.state is not BankState.IDLE:
                return False
        return True

    def can_refresh(self, cycle: int) -> bool:
        """True when a REFRESH command may issue this cycle."""
        if cycle < self.ready_activate:
            return False
        for bank in self.banks:
            if bank.state is not BankState.IDLE:
                return False
            if cycle < bank.refresh_busy_until:
                return False  # a per-bank refresh window is still open
            if cycle < bank.ready_activate:
                return False
        return True

    def can_refresh_pb(
        self, cycle: int, bank: int, subarray: Optional[int] = None
    ) -> bool:
        """True when a per-bank refresh of ``bank`` may issue.

        Rank-level gates: the tRREFD spacing from the previous REFpb,
        the tRRD spacing from the last activate (a REFpb is an internal
        activate), and any in-progress all-bank refresh window.  The
        bank-level idle/subarray rules live in
        :meth:`~repro.dram.bank.Bank.can_refresh_pb`.
        """
        if cycle < self.refpb_ready or cycle < self.refresh_busy_until:
            return False
        if cycle < self.ready_activate:
            return False
        return self.banks[bank].can_refresh_pb(cycle, subarray)

    # ------------------------------------------------------------------
    # Earliest-ready queries (next-event engine)
    # ------------------------------------------------------------------
    # The first cycle the refresh checks above can become true with
    # rank and bank state frozen (the refreshers' wakeups).  Access
    # commands have their own earliest-issue kernel in
    # :class:`~repro.controller.base.Scheduler`.

    def next_refresh_ready(self) -> int:
        """Earliest cycle :meth:`can_refresh` can turn true.

        Only meaningful while every bank is idle; with a row open the
        refresh engine must precharge first (see
        :meth:`RefreshController.next_wakeup`).
        """
        if not self.all_banks_idle():
            return NEVER
        ready = max((b.ready_activate for b in self.banks), default=0)
        ready = max(
            ready,
            max((b.refresh_busy_until for b in self.banks), default=0),
        )
        return max(ready, self.ready_activate)

    def next_refresh_pb_ready(
        self, bank: int, subarray: Optional[int] = None
    ) -> int:
        """Earliest cycle :meth:`can_refresh_pb` can turn true."""
        ready = self.banks[bank].next_refresh_pb_ready(subarray)
        if ready == NEVER:
            return NEVER
        return max(
            ready,
            self.refpb_ready,
            self.refresh_busy_until,
            self.ready_activate,
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Rank-level gates, the tFAW window, and per-bank payloads."""
        return {
            "banks": [bank.state_dict() for bank in self.banks],
            "ready_activate": self.ready_activate,
            "ready_read": self.ready_read,
            "activate_times": list(self._activate_times),
            "refresh_count": self.refresh_count,
            "refresh_busy_until": self.refresh_busy_until,
            "refresh_pending": self.refresh_pending,
            "refpb_ready": self.refpb_ready,
            "ready_column_any": self.ready_column_any,
            "ready_column_group": list(self.ready_column_group),
            "ready_read_group": list(self.ready_read_group),
        }

    def load_state_dict(self, state: dict) -> None:
        for bank, payload in zip(self.banks, state["banks"]):
            bank.load_state_dict(payload)
        self.ready_activate = state["ready_activate"]
        self.ready_read = state["ready_read"]
        self._activate_times = deque(state["activate_times"], maxlen=4)
        self.refresh_count = state["refresh_count"]
        self.refresh_busy_until = state["refresh_busy_until"]
        self.refresh_pending = state["refresh_pending"]
        self.refpb_ready = state["refpb_ready"]
        self.ready_column_any = state["ready_column_any"]
        self.ready_column_group = list(state["ready_column_group"])
        self.ready_read_group = list(state["ready_read_group"])
        self.ver += 1  # loaded fields invalidate any cached view

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    def activate(self, cycle: int, bank: int, row: int) -> None:
        if not self._activate_clear(cycle):
            raise ProtocolError(
                f"rank {self.index}: illegal ACTIVATE bank={bank} "
                f"at cycle {cycle}"
            )
        self.banks[bank].activate(cycle, row)
        self.ready_activate = max(
            self.ready_activate, cycle + self.timing.tRRD
        )
        self._activate_times.append(cycle)
        self.ver += 1

    def column(
        self,
        cycle: int,
        bank: int,
        row: int,
        is_read: bool,
        auto_precharge: bool = False,
    ) -> int:
        """Issue a column access; returns the last-data-beat cycle."""
        if not self._column_clear(cycle, bank, is_read):
            raise ProtocolError(
                f"rank {self.index}: illegal column access bank={bank} "
                f"at cycle {cycle}"
            )
        self.banks[bank].column(cycle, row, is_read, auto_precharge)
        t = self.timing
        if is_read:
            data_end = cycle + t.tCL + t.data_cycles
        else:
            data_end = cycle + t.tCWL + t.data_cycles
            self.ready_read = max(self.ready_read, data_end + t.tWTR)
            self.ver += 1  # tWTR gate moved: rank-wide read candidates stale
        if self.bank_groups > 1:
            group = bank % self.bank_groups
            self.ready_column_any = max(
                self.ready_column_any, cycle + t.ccd_short
            )
            self.ready_column_group[group] = max(
                self.ready_column_group[group], cycle + t.ccd_long
            )
            if not is_read:
                self.ready_read_group[group] = max(
                    self.ready_read_group[group], data_end + t.wtr_long
                )
            # Group gates moved on EVERY column (reads included), so
            # cached rank-wide views are stale even for reads.
            self.ver += 1
        return data_end

    def precharge(self, cycle: int, bank: int) -> None:
        self.banks[bank].precharge(cycle)

    def refresh(self, cycle: int) -> int:
        """Refresh the whole rank; returns the cycle it completes."""
        if not self.can_refresh(cycle):
            raise ProtocolError(
                f"rank {self.index}: illegal REFRESH at cycle {cycle}"
            )
        done = cycle + self.timing.tRFC
        for bank in self.banks:
            bank.apply_refresh(done)
        self.ready_activate = max(self.ready_activate, done)
        self.refresh_busy_until = done
        self.refresh_count += 1
        self.ver += 1
        return done

    def refresh_pb(
        self, cycle: int, bank: int, subarray: Optional[int] = None
    ) -> int:
        """Per-bank refresh of ``bank``; returns the cycle it completes.

        Only the target bank is occupied (for ``tRFCpb`` cycles); the
        rank records the tRREFD spacing gate.  A REFpb does not count
        against tFAW and leaves ``ready_activate`` alone — other banks
        keep activating freely, which is the whole point of REFpb.
        """
        if not self.can_refresh_pb(cycle, bank, subarray):
            raise ProtocolError(
                f"rank {self.index}: illegal REFpb bank={bank} "
                f"at cycle {cycle}"
            )
        done = self.banks[bank].apply_refresh_pb(cycle, subarray)
        self.refpb_ready = cycle + self.timing.refpb_spacing
        self.refresh_count += 1
        self.ver += 1
        return done

    def open_row(self, bank: int) -> Optional[int]:
        """The row currently open in ``bank`` (None when precharged)."""
        return self.banks[bank].open_row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rank({self.index}, banks={len(self.banks)})"


__all__ = ["Rank"]
