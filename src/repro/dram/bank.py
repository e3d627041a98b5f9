"""Per-bank SDRAM state machine.

A bank is either *idle* (precharged) or *active* with one open row held
in the sense amplifiers (§2 of the paper).  Commands become legal when
both the state machine allows them and their earliest-issue cycles —
updated by previously issued commands — have been reached.

The bank never decides anything; it only validates and applies commands
the controller issues, raising :class:`~repro.errors.ProtocolError` on
violations.  Schedulers must consult ``can_*`` before issuing, which is
exactly the paper's notion of a transaction being *unblocked* (§3.3).
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.dram.timing import TimingParams
from repro.errors import ProtocolError
from repro.timebase import NEVER


class BankState(enum.Enum):
    """Precharged or holding an open row."""

    IDLE = "idle"
    ACTIVE = "active"


class Bank:
    """One SDRAM bank: open-row tracking plus timing bookkeeping.

    Earliest-issue cycles (``ready_*``) are maintained for each command
    kind.  Rank- and channel-level constraints (tRRD, tFAW, tWTR, data
    bus occupancy) are enforced one level up, in
    :class:`~repro.dram.rank.Rank` and
    :class:`~repro.dram.channel.Channel`.
    """

    def __init__(
        self,
        timing: TimingParams,
        index: int,
        subarray_rows: Optional[int] = None,
    ) -> None:
        self.timing = timing
        self.index = index
        #: Rows per subarray (SARP geometry); ``None`` disables
        #: subarray-level reasoning and every refresh window excludes
        #: the whole bank.
        self.subarray_rows = subarray_rows
        self.state = BankState.IDLE
        self.open_row: Optional[int] = None
        self.ready_activate = 0
        self.ready_column = 0
        self.ready_precharge = 0
        # Per-bank refresh (REFpb) state.  While ``cycle <
        # refresh_busy_until`` the bank is refreshing: new activates are
        # blocked, except (SARP) activates to a different subarray than
        # ``refreshing_subarray``.  ``refresh_pending`` is the per-bank
        # analogue of the rank-level refresh starvation fix: the
        # refresh controller raises it when a REFpb is due so the
        # schedulers stop opening new rows (in the pending subarray,
        # when one is named) and the bank drains.
        self.refresh_busy_until = 0
        self.refreshing_subarray: Optional[int] = None
        self.refresh_pending = False
        self.pending_subarray: Optional[int] = None
        #: REFpb commands applied to this bank; also drives the SARP
        #: subarray round-robin (target = count % subarrays).
        self.refresh_pb_count = 0
        #: Write-version stamp: bumped on every state mutation, so the
        #: schedulers' flat-array caches (DESIGN.md §11) can tell a
        #: cached earliest-issue value is still valid without re-reading
        #: any of the fields above.  Monotonic within a run; a snapshot
        #: carries it together with the caches it stamps.
        self.ver = 0
        # Statistics consumed by the analysis layer.
        self.activate_count = 0
        self.precharge_count = 0
        self.column_count = 0

    # ------------------------------------------------------------------
    # Legality checks ("is this transaction unblocked at cycle t?")
    # ------------------------------------------------------------------

    def subarray_of(self, row: Optional[int]) -> Optional[int]:
        """The subarray holding ``row`` (``None`` without geometry)."""
        if row is None or not self.subarray_rows:
            return None
        return row // self.subarray_rows

    def _refresh_excludes(self, subarray: Optional[int]) -> bool:
        """Whether an in-window refresh blocks work on ``subarray``.

        A whole-bank REFpb (``refreshing_subarray is None``) excludes
        everything; a SARP refresh excludes only its own subarray, but
        an access whose subarray is unknown must assume the worst.
        """
        return (
            self.refreshing_subarray is None
            or subarray is None
            or subarray == self.refreshing_subarray
        )

    def _pending_excludes(self, subarray: Optional[int]) -> bool:
        """Whether a pending (not yet issued) REFpb blocks new rows."""
        return (
            self.pending_subarray is None
            or subarray is None
            or subarray == self.pending_subarray
        )

    def can_activate(self, cycle: int, subarray: Optional[int] = None) -> bool:
        """True when a row activate may issue this cycle.

        ``subarray`` (of the row being opened) refines the per-bank
        refresh gates: a SARP refresh window or pending SARP refresh
        blocks only its own subarray.
        """
        if self.state is not BankState.IDLE or cycle < self.ready_activate:
            return False
        if self.refresh_pending and self._pending_excludes(subarray):
            return False
        if cycle < self.refresh_busy_until and self._refresh_excludes(subarray):
            return False
        return True

    def can_column(self, cycle: int, row: int) -> bool:
        """True when a column access to ``row`` may issue this cycle.

        Requires the bank to be active with ``row`` open and tRCD/tCCD
        satisfied.  Data bus availability is checked by the channel.
        """
        return (
            self.state is BankState.ACTIVE
            and self.open_row == row
            and cycle >= self.ready_column
        )

    def can_precharge(self, cycle: int) -> bool:
        """True when the open row may be closed this cycle (tRAS etc.)."""
        return self.state is BankState.ACTIVE and cycle >= self.ready_precharge

    # ------------------------------------------------------------------
    # Earliest-ready queries (next-event engine)
    # ------------------------------------------------------------------
    # The first cycle a check the refreshers rely on can become true
    # *given frozen bank state*, or NEVER when only a state change (a
    # command) could enable it.  All timing gates are monotone
    # thresholds, so the answer is exact.  Access commands have their
    # own earliest-issue kernel in :class:`~repro.controller.base.Scheduler`.

    def next_precharge_ready(self) -> int:
        """Earliest cycle :meth:`can_precharge` can turn true."""
        return self.ready_precharge if self.state is BankState.ACTIVE else NEVER

    # ------------------------------------------------------------------
    # Per-bank refresh (REFpb)
    # ------------------------------------------------------------------

    def can_refresh_pb(self, cycle: int, subarray: Optional[int] = None) -> bool:
        """True when a per-bank refresh may issue this cycle.

        The bank must be out of any earlier refresh window and past its
        activate-readiness chain (a REFpb is an internally generated
        activate of ``subarray``); it must be precharged, except under
        SARP where a row open in a *different* subarray may stay open.
        """
        if cycle < self.refresh_busy_until or cycle < self.ready_activate:
            return False
        if self.state is BankState.IDLE:
            return True
        open_sa = self.subarray_of(self.open_row)
        return (
            subarray is not None
            and open_sa is not None
            and open_sa != subarray
        )

    def next_refresh_pb_ready(self, subarray: Optional[int] = None) -> int:
        """Earliest cycle :meth:`can_refresh_pb` can turn true."""
        if self.state is not BankState.IDLE:
            open_sa = self.subarray_of(self.open_row)
            if (
                subarray is None
                or open_sa is None
                or open_sa == subarray
            ):
                return NEVER  # needs a precharge first
        ready = self.ready_activate
        if self.refresh_busy_until > ready:
            ready = self.refresh_busy_until
        return ready

    def _refresh_blocking_row(self, subarray: Optional[int]) -> bool:
        """Whether the open row prevents a REFpb of ``subarray``.

        The refresh controllers use this to decide if a pending REFpb
        needs a precharge first: under SARP a row open in a different
        subarray never blocks.
        """
        if self.open_row is None:
            return False
        open_sa = self.subarray_of(self.open_row)
        return subarray is None or open_sa is None or open_sa == subarray

    def set_refresh_pending(self, subarray: Optional[int]) -> None:
        """Mark a due REFpb: stop opening rows that would block it."""
        if not self.refresh_pending or self.pending_subarray != subarray:
            self.refresh_pending = True
            self.pending_subarray = subarray
            self.ver += 1

    def apply_refresh_pb(
        self, cycle: int, subarray: Optional[int] = None
    ) -> int:
        """Refresh one bank (one subarray under SARP); returns done cycle.

        The bank (or, under SARP, the refreshed subarray) is busy until
        ``cycle + tRFCpb``; any pending marker is consumed.
        """
        if not self.can_refresh_pb(cycle, subarray):
            raise ProtocolError(
                f"bank {self.index}: illegal REFpb at cycle {cycle} "
                f"(state={self.state.value}, open_row={self.open_row}, "
                f"ready={self.ready_activate}, "
                f"busy_until={self.refresh_busy_until})"
            )
        done = cycle + self.timing.refpb_recovery
        self.refresh_busy_until = done
        self.refreshing_subarray = subarray
        self.refresh_pending = False
        self.pending_subarray = None
        self.refresh_pb_count += 1
        self.ver += 1
        return done

    # ------------------------------------------------------------------
    # Command application
    # ------------------------------------------------------------------

    def activate(self, cycle: int, row: int) -> None:
        """Open ``row``; columns become legal after tRCD."""
        if not self.can_activate(cycle, self.subarray_of(row)):
            raise ProtocolError(
                f"bank {self.index}: illegal ACTIVATE at cycle {cycle} "
                f"(state={self.state.value}, ready={self.ready_activate})"
            )
        t = self.timing
        self.state = BankState.ACTIVE
        self.open_row = row
        self.ready_column = cycle + t.tRCD
        self.ready_precharge = cycle + t.tRAS
        self.ready_activate = cycle + t.tRC
        self.ver += 1
        self.activate_count += 1

    def column(
        self, cycle: int, row: int, is_read: bool, auto_precharge: bool = False
    ) -> None:
        """Issue a column access to the open row.

        With ``auto_precharge`` (the close-page-autoprecharge row policy
        of paper Table 1) the bank closes itself after the access with
        no explicit PRECHARGE command on the bus; the next activate is
        gated by the internal precharge time plus tRP.
        """
        if not self.can_column(cycle, row):
            raise ProtocolError(
                f"bank {self.index}: illegal column access at cycle {cycle} "
                f"(state={self.state.value}, open_row={self.open_row}, "
                f"requested row={row}, ready={self.ready_column})"
            )
        t = self.timing
        # Same bank implies same bank group, so the long gap applies
        # (ccd_long degrades to the plain tCCD on single-group devices).
        self.ready_column = max(
            self.ready_column, cycle + max(t.ccd_long, t.data_cycles)
        )
        if is_read:
            pre = cycle + t.read_to_precharge
        else:
            pre = cycle + t.write_to_precharge
        self.ready_precharge = max(self.ready_precharge, pre)
        self.ver += 1
        self.column_count += 1
        if auto_precharge:
            self.state = BankState.IDLE
            self.open_row = None
            self.ready_activate = max(
                self.ready_activate, self.ready_precharge + t.tRP
            )
            self.precharge_count += 1

    def precharge(self, cycle: int) -> None:
        """Close the open row; activates become legal after tRP."""
        if not self.can_precharge(cycle):
            raise ProtocolError(
                f"bank {self.index}: illegal PRECHARGE at cycle {cycle} "
                f"(state={self.state.value}, ready={self.ready_precharge})"
            )
        self.state = BankState.IDLE
        self.open_row = None
        self.ready_activate = max(
            self.ready_activate, cycle + self.timing.tRP
        )
        self.ver += 1
        self.precharge_count += 1

    def apply_refresh(self, done_cycle: int) -> None:
        """Block the bank until an in-progress rank refresh finishes."""
        if self.state is not BankState.IDLE:
            raise ProtocolError(
                f"bank {self.index}: refresh with open row {self.open_row}"
            )
        self.ready_activate = max(self.ready_activate, done_cycle)
        self.ver += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Bank({self.index}, {self.state.value}, row={self.open_row})"
        )


__all__ = ["Bank", "BankState"]
