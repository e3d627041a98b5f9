"""SDRAM channel: ranks sharing one command bus and one data bus.

The SDRAM buses are split-transaction (§2.1), so transactions belonging
to different accesses interleave freely — the channel only enforces the
physical constraints:

* at most one command on the address/command bus per cycle;
* one burst at a time on the data bus, with a one-cycle gap on a
  read/write direction change and a tRTRS gap when consecutive bursts
  come from different ranks (the DDR2 rank-to-rank turnaround the paper
  highlights in §3 and §3.3);
* every bank/rank timing constraint, delegated downward.

The channel defines the *row hit* / *row conflict* / *row empty* states
an access is classified into (§2) and collects the bus utilisation
statistics of Figure 9(b) of the paper.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.dram.commands import Command, CommandType, TracedCommand
from repro.dram.rank import Rank
from repro.dram.timing import TimingParams
from repro.errors import ProtocolError


class RowState(enum.Enum):
    """How an access finds its target bank (paper §2, Table 1)."""

    HIT = "hit"
    CONFLICT = "conflict"
    EMPTY = "empty"

    # Members are singletons: identity hashing skips Enum.__hash__.
    __hash__ = object.__hash__


class Channel:
    """Ranks of banks behind one shared command bus and data bus."""

    def __init__(
        self,
        timing: TimingParams,
        index: int,
        ranks: int,
        banks: int,
        subarray_rows: Optional[int] = None,
    ) -> None:
        self.timing = timing
        self.index = index
        self.subarray_rows = subarray_rows
        self.ranks: List[Rank] = [
            Rank(timing, r, banks, subarray_rows) for r in range(ranks)
        ]
        self.banks_per_rank = banks
        # Command bus: one command per cycle.  The next-event engine
        # reads the last command's cycle (-1 before the first) after a
        # tick to tell command cycles from dead ones it may leap over.
        self.last_command_cycle = -1
        # Data bus occupancy/turnaround state.
        self.data_busy_until = 0
        self._last_data_rank: Optional[int] = None
        self._last_data_is_read: Optional[bool] = None
        # Utilisation counters (Figure 9b).
        self.cmd_bus_cycles = 0
        self.data_bus_cycles = 0
        # Command-event listeners (tracer, protocol oracle).  Kept as
        # a plain list so observers stack and unstack in any order.
        self._listeners: List = []

    # ------------------------------------------------------------------
    # Command-event observers
    # ------------------------------------------------------------------

    def add_command_listener(self, listener) -> None:
        """Register ``listener(traced_command)`` on every issued command.

        Listeners are independent of each other: adding or removing one
        never disturbs the others, unlike method wrapping.  With no
        listeners registered the issue paths pay a single truthiness
        check.
        """
        self._listeners.append(listener)

    def remove_command_listener(self, listener) -> None:
        """Unregister a listener; silently ignores unknown ones."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _emit(self, event: TracedCommand) -> None:
        for listener in list(self._listeners):
            listener(event)

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------

    def bank(self, rank: int, bank: int):
        return self.ranks[rank].banks[bank]

    def iter_banks(self):
        """Yield ``(rank_index, bank_index, Bank)`` for every bank."""
        for rank in self.ranks:
            for bank in rank.banks:
                yield rank.index, bank.index, bank

    # ------------------------------------------------------------------
    # Data-bus turnaround
    # ------------------------------------------------------------------

    def _data_start_gap(self, rank: int, is_read: bool) -> int:
        """Idle cycles required before the next burst may start."""
        if self._last_data_rank is None:
            return 0
        if self._last_data_rank != rank:
            return self.timing.tRTRS
        if self._last_data_is_read != is_read:
            return 1
        return 0

    def data_bus_free(self, cycle: int, rank: int, is_read: bool) -> bool:
        """Would a column access issued now find the data bus free?"""
        latency = self.timing.tCL if is_read else self.timing.tCWL
        start = cycle + latency
        return start >= self.data_busy_until + self._data_start_gap(
            rank, is_read
        )

    # ------------------------------------------------------------------
    # Unblocked test — the paper's §3.3 definition
    # ------------------------------------------------------------------

    def can_issue(self, cmd: Command, cycle: int) -> bool:
        """True when *all* timing constraints of ``cmd`` are met."""
        if cycle <= self.last_command_cycle:
            return False
        rank = self.ranks[cmd.rank]
        if (
            cmd.kind is not CommandType.REFRESH
            and cycle < rank.refresh_busy_until
        ):
            return False
        if cmd.kind is CommandType.ACTIVATE:
            assert cmd.row is not None
            return rank.can_activate(cycle, cmd.bank, cmd.row)
        if cmd.kind is CommandType.PRECHARGE:
            return rank.can_precharge(cycle, cmd.bank)
        if cmd.kind is CommandType.REFRESH:
            return rank.can_refresh(cycle)
        if cmd.kind is CommandType.REFRESH_PB:
            # Whole-bank semantics: a Command carries no subarray, so
            # the bank must be fully idle (the SARP refresher uses the
            # subarray-aware fast path below instead).
            return rank.can_refresh_pb(cycle, cmd.bank)
        # Column access: bank, rank turnaround and data bus must agree.
        assert cmd.row is not None
        is_read = cmd.kind is CommandType.READ
        if not rank.can_column(cycle, cmd.bank, cmd.row, is_read):
            return False
        return self.data_bus_free(cycle, cmd.rank, is_read)

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------

    def issue(self, cmd: Command, cycle: int) -> Optional[int]:
        """Drive ``cmd`` onto the command bus at ``cycle``.

        Returns the last-data-beat cycle for column accesses and the
        completion cycle for REFRESH; ``None`` for precharge/activate.
        Raises :class:`~repro.errors.ProtocolError` if the command is
        blocked — schedulers must check :meth:`can_issue` first.
        """
        if not self.can_issue(cmd, cycle):
            raise ProtocolError(
                f"channel {self.index}: blocked command {cmd} at {cycle}"
            )
        if cmd.kind is CommandType.ACTIVATE:
            self.issue_activate(cycle, cmd.rank, cmd.bank, cmd.row)
            return None
        if cmd.kind is CommandType.PRECHARGE:
            self.issue_precharge(cycle, cmd.rank, cmd.bank)
            return None
        if cmd.kind is CommandType.REFRESH:
            return self.issue_refresh(cycle, cmd.rank)
        if cmd.kind is CommandType.REFRESH_PB:
            return self.issue_refresh_pb(cycle, cmd.rank, cmd.bank)
        is_read = cmd.kind is CommandType.READ
        return self.issue_column(
            cycle, cmd.rank, cmd.bank, cmd.row, is_read
        )

    def command_bus_free(self, cycle: int) -> bool:
        """True when no command has been driven at ``cycle`` yet."""
        return cycle > self.last_command_cycle

    # ------------------------------------------------------------------
    # Fast paths used by the scheduler hot loops.  These avoid building
    # Command objects; semantics are identical to can_issue/issue.
    # The caller is responsible for checking command_bus_free first
    # (schedulers issue at most one command per cycle by construction).
    # ------------------------------------------------------------------

    def can_activate_at(
        self, cycle: int, rank: int, bank: int, row: Optional[int] = None
    ) -> bool:
        r = self.ranks[rank]
        return cycle >= r.refresh_busy_until and r.can_activate(
            cycle, bank, row
        )

    def can_precharge_at(self, cycle: int, rank: int, bank: int) -> bool:
        r = self.ranks[rank]
        return cycle >= r.refresh_busy_until and r.can_precharge(cycle, bank)

    def can_column_at(
        self, cycle: int, rank: int, bank: int, row: int, is_read: bool
    ) -> bool:
        r = self.ranks[rank]
        if cycle < r.refresh_busy_until:
            return False
        if not r.can_column(cycle, bank, row, is_read):
            return False
        return self.data_bus_free(cycle, rank, is_read)

    def can_refresh_pb_at(
        self,
        cycle: int,
        rank: int,
        bank: int,
        subarray: Optional[int] = None,
    ) -> bool:
        r = self.ranks[rank]
        return cycle >= r.refresh_busy_until and r.can_refresh_pb(
            cycle, bank, subarray
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Bus occupancy/turnaround state plus every rank's payload.

        ``_listeners`` is deliberately *not* serialized: restore is
        in-place, so whatever observers (tracer, oracle, monitors) the
        target system has attached keep watching across a load.
        """
        return {
            "last_cmd_cycle": self.last_command_cycle,
            "data_busy_until": self.data_busy_until,
            "last_data_rank": self._last_data_rank,
            "last_data_is_read": self._last_data_is_read,
            "cmd_bus_cycles": self.cmd_bus_cycles,
            "data_bus_cycles": self.data_bus_cycles,
            "ranks": [rank.state_dict() for rank in self.ranks],
        }

    def load_state_dict(self, state: dict) -> None:
        self.last_command_cycle = state["last_cmd_cycle"]
        self.data_busy_until = state["data_busy_until"]
        self._last_data_rank = state["last_data_rank"]
        self._last_data_is_read = state["last_data_is_read"]
        self.cmd_bus_cycles = state["cmd_bus_cycles"]
        self.data_bus_cycles = state["data_bus_cycles"]
        for rank, payload in zip(self.ranks, state["ranks"]):
            rank.load_state_dict(payload)

    def issue_activate(
        self,
        cycle: int,
        rank: int,
        bank: int,
        row: int,
        source: Optional[int] = None,
    ) -> None:
        self._claim_cmd_bus(cycle)
        self.ranks[rank].activate(cycle, bank, row)
        if self._listeners:
            self._emit(
                TracedCommand(
                    cycle, "ACT", rank, bank, row, None, source=source
                )
            )

    def issue_precharge(
        self,
        cycle: int,
        rank: int,
        bank: int,
        source: Optional[int] = None,
    ) -> None:
        self._claim_cmd_bus(cycle)
        self.ranks[rank].precharge(cycle, bank)
        if self._listeners:
            self._emit(
                TracedCommand(
                    cycle, "PRE", rank, bank, None, None, source=source
                )
            )

    def issue_column(
        self,
        cycle: int,
        rank: int,
        bank: int,
        row: int,
        is_read: bool,
        auto_precharge: bool = False,
        column: Optional[int] = None,
        source: Optional[int] = None,
    ) -> int:
        """Issue READ/WRITE; returns the last-data-beat cycle."""
        self._claim_cmd_bus(cycle)
        data_end = self.ranks[rank].column(
            cycle, bank, row, is_read, auto_precharge
        )
        self.data_busy_until = data_end
        self._last_data_rank = rank
        self._last_data_is_read = is_read
        self.data_bus_cycles += self.timing.data_cycles
        if self._listeners:
            latency = self.timing.tCL if is_read else self.timing.tCWL
            self._emit(
                TracedCommand(
                    cycle,
                    "RD" if is_read else "WR",
                    rank,
                    bank,
                    row,
                    data_end,
                    column=column,
                    auto_precharge=auto_precharge,
                    data_start=cycle + latency,
                    source=source,
                )
            )
        return data_end

    def issue_refresh(self, cycle: int, rank: int) -> int:
        """Issue REFRESH to a whole rank; returns its completion cycle."""
        self._claim_cmd_bus(cycle)
        done = self.ranks[rank].refresh(cycle)
        if self._listeners:
            self._emit(TracedCommand(cycle, "REF", rank, 0, None, done))
        return done

    def issue_refresh_pb(
        self,
        cycle: int,
        rank: int,
        bank: int,
        subarray: Optional[int] = None,
    ) -> int:
        """Issue a per-bank REFpb; returns its completion cycle."""
        self._claim_cmd_bus(cycle)
        done = self.ranks[rank].refresh_pb(cycle, bank, subarray)
        if self._listeners:
            self._emit(
                TracedCommand(
                    cycle, "REFPB", rank, bank, None, done,
                    subarray=subarray,
                )
            )
        return done

    def _claim_cmd_bus(self, cycle: int) -> None:
        if cycle <= self.last_command_cycle:
            raise ProtocolError(
                f"channel {self.index}: command bus conflict at {cycle}"
            )
        self.last_command_cycle = cycle
        self.cmd_bus_cycles += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Channel({self.index}, ranks={len(self.ranks)}, "
            f"banks/rank={self.banks_per_rank})"
        )


__all__ = ["Channel", "RowState"]
