"""Independent DDR2 protocol-conformance oracle.

Every result in the reproduction rests on the command timing the
bank/rank/channel state machines enforce — and until now those state
machines were the *only* arbiter of legality, so a timing bug would
silently bend every figure.  :class:`ProtocolOracle` is a second,
fully independent implementation of the DDR2 protocol: it consumes
the channel's :class:`~repro.dram.commands.TracedCommand` event
stream and re-verifies every transaction against the complete
:class:`~repro.dram.timing.TimingParams` constraint set using its own
shadow state, sharing **zero code** with :mod:`repro.dram.bank`,
:mod:`repro.dram.rank` or :mod:`repro.dram.channel`.

Where the device model pre-computes ``ready_*`` cycles as commands
apply, the oracle deliberately takes the opposite approach — it keeps
raw event timestamps (last activate, last column, last refresh, the
data-bus window) and evaluates each constraint as an inequality at
check time.  Two implementations of the same spec built on different
state representations are unlikely to share a bug.

Checked constraints (paper §2 / Table 1 and the Micron datasheet
conventions of :mod:`repro.dram.timing`):

==============  =====================================================
tRCD            activate to column command, same bank
tRP             precharge (explicit or auto) to activate, same bank
tRAS            activate to precharge, same bank
tRC             activate to activate, same bank
tCL / tCWL      command-to-data windows (recomputed and cross-checked
                against the traced ``data_start``/``data_end``)
tWR             write recovery before precharge
tWTR            write data to read command, same rank
tRTP            read command to precharge
tRRD            activate to activate, different banks of one rank
tFAW            at most four activates per rolling tFAW window
tCCD            column to column, same bank (with burst occupancy)
data bus        burst non-overlap plus direction and tRTRS rank
                turnaround gaps
command bus     one command per channel per cycle, monotone cycles
state machine   no column/precharge on an idle bank, no activate on
                an open bank, no refresh with open rows
tREFI / tRFC    rank busy for tRFC after REFRESH; refreshes never
                postponed beyond the JEDEC 9 x tREFI bound
tRFCpb          bank busy for tRFCpb after a per-bank REFpb; no other
                command may touch the refreshing bank (under SARP,
                only the refreshing subarray is excluded)
tRREFD          minimum spacing between REFpb commands on one rank
per-bank tREFI  every *bank* refreshed (REF or REFpb) within the
                9 x tREFI bound, checked in-stream and at end of run
refresh setup   a REFpb is an internal activate: tRP/tRC at the bank,
                tRRD at the rank must have elapsed
SARP            a REFpb naming a subarray must not collide with the
                open row's subarray, and must follow the per-bank
                subarray round-robin (count % subarrays)
tCCD_L          column to column within one bank group (DDR4/DDR5
                generations with ``bank_groups > 1``)
tCCD_S          column to column anywhere on the rank (the short
                floor every column pair pays)
tWTR_L          write data to read command within one bank group
==============  =====================================================

The active subset of these rules is a property of the device
generation: each optional row switches on with the
:class:`~repro.dram.timing.TimingParams` field that enables it
(``tRTRS``, ``tFAW``, ``tREFI``, ``bank_groups > 1``).  Sub-channel
independence needs no rule of its own: :func:`attach_oracles` builds
one oracle per *physical* channel (sub-channels included), each with
its own command-bus, data-bus and shadow device state, so any
cross-talk between sub-channels would surface as an ordinary
violation on one of them.

Usage — live, next to the hazard monitor::

    oracles = attach_oracles(system)        # or REPRO_ORACLE=1
    ...run...                               # raises on any violation
    system.finalize()                       # end-of-run refresh audit

or offline over a saved trace file (``repro-experiments
verify-trace``) via :func:`verify_trace`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, List, Optional

from repro.dram.commands import TracedCommand
from repro.dram.timing import TimingParams
from repro.errors import OracleViolationError

#: JEDEC DDR2 allows a controller to postpone at most eight auto
#: refreshes, so consecutive REFRESH commands to one rank may never be
#: further apart than (8 + 1) x tREFI.
MAX_POSTPONED_REFRESHES = 8


@dataclass(frozen=True)
class Violation:
    """One protocol violation: the offending command, rule and detail."""

    cycle: int
    rule: str
    message: str
    command: Optional[TracedCommand] = None

    def __str__(self) -> str:
        return f"cycle {self.cycle}: [{self.rule}] {self.message}"


class _BankShadow:
    """Raw per-bank event history (no code shared with dram.bank)."""

    __slots__ = ("open_row", "last_act", "last_read", "last_write",
                 "act_ready_after_close", "refresh_done", "refreshing_sa",
                 "last_refresh", "refresh_count", "virtual_due")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.last_act: Optional[int] = None
        self.last_read: Optional[int] = None
        self.last_write: Optional[int] = None
        #: Earliest activate after the most recent row close (the tRP
        #: chain, including an auto-precharge's internal close point).
        self.act_ready_after_close = 0
        #: End of this bank's own REFpb window (tRFCpb).
        self.refresh_done = 0
        #: Subarray of the in-progress REFpb (SARP), else None: the
        #: whole bank is excluded until :attr:`refresh_done`.
        self.refreshing_sa: Optional[int] = None
        #: Cycle this *bank* was last refreshed, by REF or REFpb.
        self.last_refresh: Optional[int] = None
        #: REFpb commands this bank has received (SARP round-robin).
        self.refresh_count = 0
        #: The bank's virtual refresh-schedule position: each REFpb
        #: retires one scheduled refresh and advances this by tREFI,
        #: regardless of when it actually issued.  JEDEC's debit/credit
        #: rule bounds each refresh to +/- 8 x tREFI of this position —
        #: a plain inter-refresh gap bound would false-flag legitimate
        #: DARP pull-ins (an early refresh stretches the following gap
        #: without ever violating the schedule).  None until the first
        #: refresh activity establishes the schedule.
        self.virtual_due: Optional[int] = None


class _RankShadow:
    """Raw per-rank event history (no code shared with dram.rank)."""

    __slots__ = ("banks", "act_times", "last_act", "read_ready",
                 "refresh_done", "last_refresh", "refresh_count",
                 "last_refpb", "last_col_any", "group_last_col",
                 "group_read_ready")

    def __init__(self, banks: int, groups: int = 1) -> None:
        self.banks = [_BankShadow() for _ in range(banks)]
        #: Cycles of the four most recent activates (tFAW window).
        self.act_times: Deque[int] = deque(maxlen=4)
        self.last_act: Optional[int] = None
        #: Earliest read command after the last write's data (tWTR).
        self.read_ready = 0
        self.refresh_done = 0
        self.last_refresh: Optional[int] = None
        self.refresh_count = 0
        #: Most recent REFpb to *any* bank of this rank (tRREFD).
        self.last_refpb: Optional[int] = None
        #: Bank-group history (DDR4/DDR5, ``bank_groups > 1``): the
        #: most recent column command to any bank (tCCD_S), the most
        #: recent per group (tCCD_L), and the per-group earliest read
        #: after a write's data (tWTR_L).  Unused on single-group
        #: generations — the lists stay at their initial values.
        self.last_col_any: Optional[int] = None
        self.group_last_col: List[Optional[int]] = [None] * groups
        self.group_read_ready: List[int] = [0] * groups


class ProtocolOracle:
    """Shadow DDR2 state machines that re-verify a command stream.

    ``strict=True`` (the default) raises
    :class:`~repro.errors.OracleViolationError` on the first violation,
    with a rendered excerpt of the recent schedule; ``strict=False``
    accumulates every violation in :attr:`violations` instead, which
    the differential fuzz harness uses to report all failures at once.
    """

    def __init__(
        self,
        timing: TimingParams,
        ranks: int,
        banks: int,
        strict: bool = True,
        channel_index: int = 0,
        subarray_rows: Optional[int] = None,
        subarrays: int = 1,
    ) -> None:
        self.timing = timing
        self.strict = strict
        self.channel_index = channel_index
        #: Rows per subarray; None means the oracle cannot map rows to
        #: subarrays, so SARP exclusions degrade to whole-bank checks.
        self.subarray_rows = subarray_rows
        self.subarrays = subarrays
        self.violations: List[Violation] = []
        self.commands_checked = 0
        self._ranks = [
            _RankShadow(banks, timing.bank_groups) for _ in range(ranks)
        ]
        # Channel-level shadow state.
        self._last_cmd_cycle: Optional[int] = None
        self._data_busy_until = 0
        self._last_data_rank: Optional[int] = None
        self._last_data_is_read: Optional[bool] = None
        # Recent schedule for violation excerpts.
        self._recent: Deque[TracedCommand] = deque(maxlen=16)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def excerpt(self, count: int = 12) -> str:
        """The most recent commands, one per line (Figure 1 style)."""
        recent = list(self._recent)[-count:]
        return "\n".join(str(command) for command in recent)

    def _flag(self, cmd: TracedCommand, rule: str, message: str) -> None:
        violation = Violation(cmd.cycle, rule, message, cmd)
        self.violations.append(violation)
        if self.strict:
            raise OracleViolationError(
                f"protocol violation on channel {self.channel_index}: "
                f"{violation}\nrecent schedule:\n{self.excerpt()}"
            )

    # ------------------------------------------------------------------
    # Observation entry point
    # ------------------------------------------------------------------

    def observe(self, cmd: TracedCommand) -> None:
        """Verify one command against the shadow state, then apply it."""
        self.commands_checked += 1
        self._recent.append(cmd)
        c = cmd.cycle
        # Command bus: one command per cycle, monotonically ordered.
        if self._last_cmd_cycle is not None and c <= self._last_cmd_cycle:
            self._flag(
                cmd, "cmd-bus",
                f"{cmd.kind} driven at {c} but the command bus was last "
                f"used at {self._last_cmd_cycle}",
            )
        self._last_cmd_cycle = (
            c if self._last_cmd_cycle is None
            else max(self._last_cmd_cycle, c)
        )
        if not 0 <= cmd.rank < len(self._ranks):
            self._flag(cmd, "state", f"rank {cmd.rank} does not exist")
            return
        rank = self._ranks[cmd.rank]
        # A refreshing rank accepts no command until tRFC elapses.
        if cmd.kind != "REF" and c < rank.refresh_done:
            self._flag(
                cmd, "tRFC",
                f"{cmd.kind} to rank {cmd.rank} during refresh "
                f"(busy until {rank.refresh_done})",
            )
        if cmd.kind == "REF":
            self._observe_refresh(cmd, rank)
            return
        if not 0 <= cmd.bank < len(rank.banks):
            self._flag(cmd, "state", f"bank {cmd.bank} does not exist")
            return
        bank = rank.banks[cmd.bank]
        if cmd.kind == "REFPB":
            self._observe_refresh_pb(cmd, rank, bank)
            return
        if cmd.kind == "ACT":
            self._observe_activate(cmd, rank, bank)
        elif cmd.kind == "PRE":
            self._observe_precharge(cmd, rank, bank)
        elif cmd.kind in ("RD", "WR"):
            self._observe_column(cmd, rank, bank)
        else:
            self._flag(cmd, "state", f"unknown command kind {cmd.kind!r}")

    # ------------------------------------------------------------------
    # Per-kind checks + state application
    # ------------------------------------------------------------------

    def _row_subarray(self, row: Optional[int]) -> Optional[int]:
        """The subarray a row lives in, or None if geometry is unknown."""
        if row is None or not self.subarray_rows:
            return None
        return row // self.subarray_rows

    def _pb_window_blocks(self, bank, subarray: Optional[int]) -> bool:
        """Whether an open REFpb window excludes an access.

        A plain REFpb occupies the whole bank.  A SARP refresh names its
        subarray, and only same-subarray accesses collide — but when the
        oracle lacks subarray geometry (or the access's subarray is
        unknown) it must assume the worst and block.
        """
        return (
            bank.refreshing_sa is None
            or subarray is None
            or subarray == bank.refreshing_sa
        )

    def _observe_activate(self, cmd, rank, bank) -> None:
        t, c = self.timing, cmd.cycle
        if cmd.row is None:
            self._flag(cmd, "state", "ACT carries no row")
        if c < bank.refresh_done and self._pb_window_blocks(
            bank, self._row_subarray(cmd.row)
        ):
            self._flag(
                cmd, "tRFCpb",
                f"ACT to bank {cmd.bank} during its per-bank refresh "
                f"(busy until {bank.refresh_done})",
            )
        if bank.open_row is not None:
            self._flag(
                cmd, "state",
                f"ACT while row {bank.open_row} is already open",
            )
        if bank.last_act is not None and c < bank.last_act + t.tRC:
            self._flag(
                cmd, "tRC",
                f"ACT {c - bank.last_act} cycles after the previous ACT "
                f"(tRC={t.tRC})",
            )
        if c < bank.act_ready_after_close:
            self._flag(
                cmd, "tRP",
                f"ACT at {c} before the row close completed "
                f"(earliest {bank.act_ready_after_close})",
            )
        if rank.last_act is not None and c < rank.last_act + t.tRRD:
            self._flag(
                cmd, "tRRD",
                f"ACT {c - rank.last_act} cycles after an ACT to another "
                f"bank of rank {cmd.rank} (tRRD={t.tRRD})",
            )
        if (
            t.tFAW is not None
            and len(rank.act_times) == 4
            and c < rank.act_times[0] + t.tFAW
        ):
            self._flag(
                cmd, "tFAW",
                f"fifth ACT within the rolling tFAW={t.tFAW} window "
                f"(window opened at {rank.act_times[0]})",
            )
        bank.open_row = cmd.row
        bank.last_act = c
        rank.last_act = c
        rank.act_times.append(c)

    def _close_constraints(self, bank) -> int:
        """Earliest cycle the bank's open row may begin to close."""
        t = self.timing
        earliest = 0 if bank.last_act is None else bank.last_act + t.tRAS
        if bank.last_read is not None:
            earliest = max(
                earliest,
                bank.last_read + max(t.tRTP, t.data_cycles),
            )
        if bank.last_write is not None:
            earliest = max(
                earliest,
                bank.last_write + t.tCWL + t.data_cycles + t.tWR,
            )
        return earliest

    def _observe_precharge(self, cmd, rank, bank) -> None:
        t, c = self.timing, cmd.cycle
        if bank.open_row is None:
            self._flag(cmd, "state", "PRE on an idle (precharged) bank")
        elif c < bank.refresh_done and self._pb_window_blocks(
            bank, self._row_subarray(bank.open_row)
        ):
            self._flag(
                cmd, "tRFCpb",
                f"PRE to bank {cmd.bank} during its per-bank refresh "
                f"(busy until {bank.refresh_done})",
            )
        earliest = self._close_constraints(bank)
        if c < earliest:
            rule = "tRAS"
            if bank.last_read is not None and \
                    earliest == bank.last_read + max(t.tRTP, t.data_cycles):
                rule = "tRTP"
            if bank.last_write is not None and \
                    earliest == bank.last_write + t.tCWL + t.data_cycles + t.tWR:
                rule = "tWR"
            self._flag(
                cmd, rule,
                f"PRE at {c} before the row may close (earliest {earliest})",
            )
        bank.open_row = None
        bank.act_ready_after_close = max(
            bank.act_ready_after_close, c + t.tRP
        )

    def _observe_column(self, cmd, rank, bank) -> None:
        t, c = self.timing, cmd.cycle
        is_read = cmd.kind == "RD"
        if bank.open_row is None:
            self._flag(cmd, "state", f"{cmd.kind} to an idle bank")
        elif c < bank.refresh_done and self._pb_window_blocks(
            bank, self._row_subarray(bank.open_row)
        ):
            self._flag(
                cmd, "tRFCpb",
                f"{cmd.kind} to bank {cmd.bank} during its per-bank "
                f"refresh (busy until {bank.refresh_done})",
            )
        if bank.open_row is not None and cmd.row is not None \
                and bank.open_row != cmd.row:
            self._flag(
                cmd, "state",
                f"{cmd.kind} to row {cmd.row} while row {bank.open_row} "
                f"is open",
            )
        if bank.last_act is not None and c < bank.last_act + t.tRCD:
            self._flag(
                cmd, "tRCD",
                f"{cmd.kind} {c - bank.last_act} cycles after ACT "
                f"(tRCD={t.tRCD})",
            )
        # Same bank implies same bank group, so the long gap applies
        # (ccd_long degrades to the plain tCCD on single-group devices).
        spacing = max(t.ccd_long, t.data_cycles)
        last_col = max(
            (x for x in (bank.last_read, bank.last_write) if x is not None),
            default=None,
        )
        if last_col is not None and c < last_col + spacing:
            self._flag(
                cmd, "tCCD",
                f"{cmd.kind} {c - last_col} cycles after the previous "
                f"column command (min spacing {spacing})",
            )
        if is_read and c < rank.read_ready:
            self._flag(
                cmd, "tWTR",
                f"RD at {c} before the write-to-read turnaround "
                f"(earliest {rank.read_ready})",
            )
        if t.bank_groups > 1:
            group = cmd.bank % t.bank_groups
            if (
                rank.last_col_any is not None
                and c < rank.last_col_any + t.ccd_short
            ):
                self._flag(
                    cmd, "tCCD_S",
                    f"{cmd.kind} {c - rank.last_col_any} cycles after "
                    f"the rank's previous column command "
                    f"(tCCD_S={t.ccd_short})",
                )
            last_group = rank.group_last_col[group]
            if last_group is not None and c < last_group + t.ccd_long:
                self._flag(
                    cmd, "tCCD_L",
                    f"{cmd.kind} {c - last_group} cycles after the "
                    f"previous column command to bank group {group} "
                    f"(tCCD_L={t.ccd_long})",
                )
            if is_read and c < rank.group_read_ready[group]:
                self._flag(
                    cmd, "tWTR_L",
                    f"RD at {c} before the same-group write-to-read "
                    f"turnaround of group {group} "
                    f"(earliest {rank.group_read_ready[group]})",
                )
        # Data bus: recompute the burst window and check non-overlap
        # plus the direction / rank turnaround gaps.
        latency = t.tCL if is_read else t.tCWL
        data_start = c + latency
        gap = 0
        if self._last_data_rank is not None:
            if self._last_data_rank != cmd.rank:
                gap = t.tRTRS
            elif self._last_data_is_read != is_read:
                gap = 1
        if data_start < self._data_busy_until + gap:
            self._flag(
                cmd, "data-bus",
                f"burst would start at {data_start} but the data bus is "
                f"busy until {self._data_busy_until} (+{gap} turnaround)",
            )
        data_end = data_start + t.data_cycles
        if cmd.data_start is not None and cmd.data_start != data_start:
            self._flag(
                cmd, "data-window",
                f"traced data_start {cmd.data_start} != recomputed "
                f"{data_start} (tCL/tCWL disagreement)",
            )
        if cmd.data_end is not None and cmd.data_end != data_end:
            self._flag(
                cmd, "data-window",
                f"traced data_end {cmd.data_end} != recomputed {data_end}",
            )
        # Apply.
        if is_read:
            bank.last_read = c
        else:
            bank.last_write = c
            rank.read_ready = max(rank.read_ready, data_end + t.tWTR)
        if t.bank_groups > 1:
            group = cmd.bank % t.bank_groups
            rank.last_col_any = c
            rank.group_last_col[group] = c
            if not is_read:
                rank.group_read_ready[group] = max(
                    rank.group_read_ready[group], data_end + t.wtr_long
                )
        self._data_busy_until = max(self._data_busy_until, data_end)
        self._last_data_rank = cmd.rank
        self._last_data_is_read = is_read
        if cmd.auto_precharge:
            close_point = self._close_constraints(bank)
            bank.open_row = None
            bank.act_ready_after_close = max(
                bank.act_ready_after_close, close_point + t.tRP
            )

    def _observe_refresh(self, cmd, rank) -> None:
        t, c = self.timing, cmd.cycle
        if c < rank.refresh_done:
            self._flag(
                cmd, "tRFC",
                f"REF at {c} while the previous refresh is still in "
                f"progress (until {rank.refresh_done})",
            )
        for index, bank in enumerate(rank.banks):
            if bank.open_row is not None:
                self._flag(
                    cmd, "state",
                    f"REF with row {bank.open_row} open in bank {index}",
                )
            if c < bank.refresh_done:
                self._flag(
                    cmd, "tRFCpb",
                    f"REF at {c} while bank {index} is mid per-bank "
                    f"refresh (until {bank.refresh_done})",
                )
            ready = bank.act_ready_after_close
            if bank.last_act is not None:
                ready = max(ready, bank.last_act + t.tRC)
            if c < ready:
                self._flag(
                    cmd, "refresh-setup",
                    f"REF at {c} before bank {index} is activate-ready "
                    f"({ready})",
                )
        if rank.last_act is not None and c < rank.last_act + t.tRRD:
            self._flag(
                cmd, "refresh-setup",
                f"REF at {c} within tRRD={t.tRRD} of an ACT",
            )
        if t.tREFI is not None:
            since = c - (rank.last_refresh or 0)
            allowed = (MAX_POSTPONED_REFRESHES + 1) * t.tREFI
            if since > allowed:
                self._flag(
                    cmd, "tREFI",
                    f"refresh postponed {since} cycles (> "
                    f"{MAX_POSTPONED_REFRESHES + 1} x tREFI = {allowed})",
                )
        if cmd.data_end is not None and cmd.data_end != c + t.tRFC:
            self._flag(
                cmd, "data-window",
                f"traced refresh completion {cmd.data_end} != "
                f"recomputed {c + t.tRFC}",
            )
        rank.refresh_done = c + t.tRFC
        rank.last_refresh = c
        rank.refresh_count += 1
        # An all-bank refresh restores every bank's retention deadline
        # and re-anchors its per-bank refresh schedule.
        for bank in rank.banks:
            bank.last_refresh = c
            if t.tREFI is not None:
                bank.virtual_due = c + t.tREFI

    def _observe_refresh_pb(self, cmd, rank, bank) -> None:
        t, c = self.timing, cmd.cycle
        sa = cmd.subarray
        if c < bank.refresh_done:
            self._flag(
                cmd, "tRFCpb",
                f"REFPB at {c} while bank {cmd.bank}'s previous per-bank "
                f"refresh is still in progress (until {bank.refresh_done})",
            )
        if rank.last_refpb is not None \
                and c < rank.last_refpb + t.refpb_spacing:
            self._flag(
                cmd, "tRREFD",
                f"REFPB {c - rank.last_refpb} cycles after the previous "
                f"REFPB on rank {cmd.rank} (tRREFD={t.refpb_spacing})",
            )
        if bank.open_row is not None:
            open_sa = self._row_subarray(bank.open_row)
            if sa is None or open_sa is None or open_sa == sa:
                self._flag(
                    cmd, "state",
                    f"REFPB with row {bank.open_row} open in bank "
                    f"{cmd.bank} (colliding subarray)",
                )
        # A per-bank refresh is an internal activate of the target bank.
        ready = bank.act_ready_after_close
        if bank.last_act is not None:
            ready = max(ready, bank.last_act + t.tRC)
        if c < ready:
            self._flag(
                cmd, "refresh-setup",
                f"REFPB at {c} before bank {cmd.bank} is activate-ready "
                f"({ready})",
            )
        if rank.last_act is not None and c < rank.last_act + t.tRRD:
            self._flag(
                cmd, "refresh-setup",
                f"REFPB at {c} within tRRD={t.tRRD} of an ACT",
            )
        if sa is not None and self.subarrays > 1 \
                and sa != bank.refresh_count % self.subarrays:
            self._flag(
                cmd, "sarp-rr",
                f"REFPB names subarray {sa} but the bank's round-robin "
                f"expects {bank.refresh_count % self.subarrays}",
            )
        if t.tREFI is not None:
            slack = MAX_POSTPONED_REFRESHES * t.tREFI
            due = bank.virtual_due if bank.virtual_due is not None \
                else t.tREFI
            if c > due + slack:
                self._flag(
                    cmd, "tREFI",
                    f"bank {cmd.bank} refresh {c - due} cycles past its "
                    f"schedule position {due} (max postpone "
                    f"{MAX_POSTPONED_REFRESHES} x tREFI = {slack})",
                )
            elif c < due - slack:
                self._flag(
                    cmd, "tREFI",
                    f"bank {cmd.bank} refresh pulled in {due - c} cycles "
                    f"ahead of schedule position {due} (max pull-in "
                    f"{MAX_POSTPONED_REFRESHES} x tREFI = {slack})",
                )
            bank.virtual_due = due + t.tREFI
        if cmd.data_end is not None \
                and cmd.data_end != c + t.refpb_recovery:
            self._flag(
                cmd, "data-window",
                f"traced per-bank refresh completion {cmd.data_end} != "
                f"recomputed {c + t.refpb_recovery}",
            )
        bank.refresh_done = c + t.refpb_recovery
        bank.refreshing_sa = sa
        bank.last_refresh = c
        bank.refresh_count += 1
        rank.last_refpb = c

    # ------------------------------------------------------------------
    # End-of-run audit
    # ------------------------------------------------------------------

    def finish(self, end_cycle: int) -> List[Violation]:
        """Final refresh-deadline audit once the run has drained.

        Checks that no *bank* ended the run with its refresh postponed
        beyond the JEDEC bound; returns (and in strict mode raises on)
        any violations found.  The audit is per bank — an all-bank REF
        restores every bank's deadline, a REFpb only its target's — so
        it covers REFab and the per-bank policies uniformly.
        """
        t = self.timing
        if t.tREFI is None:
            return self.violations
        slack = MAX_POSTPONED_REFRESHES * t.tREFI
        for index, rank in enumerate(self._ranks):
            for bank_index, bank in enumerate(rank.banks):
                due = bank.virtual_due if bank.virtual_due is not None \
                    else t.tREFI
                if end_cycle > due + slack:
                    marker = TracedCommand(
                        end_cycle, "REF", index, bank_index, None, None
                    )
                    self._flag(
                        marker, "tREFI",
                        f"rank {index} bank {bank_index} ended the run "
                        f"{end_cycle - due} cycles past its refresh "
                        f"schedule position {due} (max postpone "
                        f"{MAX_POSTPONED_REFRESHES} x tREFI = {slack})",
                    )
        return self.violations


def attach_oracles(system, strict: bool = True) -> List[ProtocolOracle]:
    """Attach one live :class:`ProtocolOracle` per channel of a system.

    The oracles subscribe to each channel's command events and are
    registered on ``system.oracles`` (when present) so
    ``MemorySystem.finalize`` runs their end-of-run refresh audit.
    """
    config = getattr(system, "config", None)
    subarrays = getattr(config, "subarrays", 1) if config else 1
    oracles = []
    for channel in system.channels:
        oracle = ProtocolOracle(
            channel.timing,
            ranks=len(channel.ranks),
            banks=channel.banks_per_rank,
            strict=strict,
            channel_index=channel.index,
            subarray_rows=getattr(channel, "subarray_rows", None),
            subarrays=subarrays,
        )
        channel.add_command_listener(oracle.observe)
        oracles.append(oracle)
    registry = getattr(system, "oracles", None)
    if registry is not None:
        registry.extend(oracles)
    return oracles


def verify_commands(
    timing: TimingParams,
    ranks: int,
    banks: int,
    commands: Iterable[TracedCommand],
    end_cycle: Optional[int] = None,
    subarray_rows: Optional[int] = None,
    subarrays: int = 1,
) -> List[Violation]:
    """Offline verification of a command schedule; returns violations."""
    oracle = ProtocolOracle(
        timing, ranks, banks, strict=False,
        subarray_rows=subarray_rows, subarrays=subarrays,
    )
    last = 0
    for command in commands:
        oracle.observe(command)
        last = max(last, command.cycle)
    oracle.finish(end_cycle if end_cycle is not None else last)
    return oracle.violations


def verify_trace(path: str) -> List[Violation]:
    """Offline verification of a saved trace file (see ``save_trace``)."""
    from repro.dram.tracer import load_trace

    trace = load_trace(path)
    return verify_commands(
        trace.timing, trace.ranks, trace.banks, trace.commands,
        subarray_rows=trace.subarray_rows, subarrays=trace.subarrays,
    )


__all__ = [
    "MAX_POSTPONED_REFRESHES",
    "ProtocolOracle",
    "Violation",
    "attach_oracles",
    "verify_commands",
    "verify_trace",
]
