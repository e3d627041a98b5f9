"""Unit tests for the channel: buses, turnaround, classification."""

import pytest

from repro.controller.access import AccessType
from repro.controller.system import MemorySystem
from repro.dram.channel import Channel, RowState
from repro.dram.commands import Command, CommandType
from repro.dram.timing import DDR2_800
from repro.errors import ProtocolError
from repro.mapping.base import DecodedAddress
from repro.sim.config import baseline_config

T = DDR2_800


@pytest.fixture
def channel():
    return Channel(T, index=0, ranks=2, banks=2)


def _open_row(channel, cycle, rank, bank, row):
    channel.issue_activate(cycle, rank, bank, row)
    return max(cycle + T.tRCD, 0)


def test_command_bus_one_command_per_cycle(channel):
    channel.issue_activate(0, 0, 0, 0)
    with pytest.raises(ProtocolError):
        channel.issue_activate(0, 1, 0, 0)
    channel.issue_activate(1, 1, 0, 0)  # other rank: not tRRD-gated


def test_command_bus_free_tracking(channel):
    assert channel.command_bus_free(0)
    channel.issue_activate(0, 0, 0, 0)
    assert not channel.command_bus_free(0)
    assert channel.command_bus_free(1)


def test_classify():
    """An access's row state is the kind of its first transaction (§2)."""
    system = MemorySystem(baseline_config(), "FCFS")
    scheduler = system.schedulers[0]

    def first_issue(row, cycle):
        address = system.mapping.encode(DecodedAddress(0, 0, 0, row, 0))
        access = system.make_access(AccessType.READ, address, cycle)
        scheduler.issue_for(access, cycle)
        return access.row_state

    assert first_issue(5, 0) is RowState.EMPTY        # ACTIVATE
    assert first_issue(5, 100) is RowState.HIT        # column
    assert first_issue(6, 200) is RowState.CONFLICT   # PRECHARGE
    counts = system.stats.row_states
    assert [counts[state] for state in RowState] == [1, 1, 1]


def test_data_bus_occupancy_blocks_overlapping_bursts(channel):
    channel.issue_activate(0, 0, 0, 0)
    channel.issue_activate(T.tRRD, 0, 1, 0)  # bank1 col ready at tRRD+tRCD
    end = channel.issue_column(T.tRCD, 0, 0, 0, True)
    assert end == T.tRCD + T.tCL + T.data_cycles
    # A read in the other bank (same rank) whose data would overlap
    # the in-flight burst is blocked until the bus frees: the first
    # legal command cycle puts its data right behind the previous
    # burst's last beat.
    first_ok = end - T.tCL
    assert not channel.can_column_at(first_ok - 1, 0, 1, 0, True)
    assert channel.can_column_at(first_ok, 0, 1, 0, True)


def test_rank_to_rank_turnaround(channel):
    """tRTRS idle cycles between bursts of different ranks (§3)."""
    t0 = _open_row(channel, 0, 0, 0, 0)
    channel.issue_activate(1, 1, 0, 0)
    end = channel.issue_column(t0, 0, 0, 0, True)
    # Same rank: back to back is fine.
    same_rank_ok = end - T.tCL
    # Other rank: must leave a tRTRS gap.
    other_rank_first = end + T.tRTRS - T.tCL
    assert not channel.can_column_at(other_rank_first - 1, 1, 0, 0, True)
    assert channel.can_column_at(other_rank_first, 1, 0, 0, True)
    assert same_rank_ok <= other_rank_first


def test_direction_turnaround_same_rank(channel):
    """One idle cycle between read data and write data."""
    t = _open_row(channel, 0, 0, 0, 0)
    end = channel.issue_column(t, 0, 0, 0, True)
    write_start_ok = end + 1  # one-cycle gap on direction change
    first_write_cmd = write_start_ok - T.tCWL
    assert not channel.can_column_at(first_write_cmd - 1, 0, 0, 0, False)
    assert channel.can_column_at(first_write_cmd, 0, 0, 0, False)


def test_issue_checks_blocked_command(channel):
    cmd = Command(CommandType.READ, 0, 0, row=0, column=0)
    with pytest.raises(ProtocolError):
        channel.issue(cmd, 0)


def test_issue_command_object_matches_fast_path(channel):
    """Command-object API and fast-path API share semantics."""
    act = Command(CommandType.ACTIVATE, 0, 0, row=3)
    assert channel.can_issue(act, 0)
    channel.issue(act, 0)
    read = Command(CommandType.READ, 0, 0, row=3, column=1)
    assert not channel.can_issue(read, T.tRCD - 1)
    assert channel.can_issue(read, T.tRCD)
    end = channel.issue(read, T.tRCD)
    assert end == T.tRCD + T.tCL + T.data_cycles


def test_refresh_command_via_issue(channel):
    refresh = Command(CommandType.REFRESH, 0, 0)
    assert channel.can_issue(refresh, 0)
    done = channel.issue(refresh, 0)
    assert done == T.tRFC
    # Rank busy: no commands to rank 0 until tRFC.
    assert not channel.can_issue(
        Command(CommandType.ACTIVATE, 0, 0, row=0), T.tRFC - 1
    )


def test_utilization_counters(channel):
    t = _open_row(channel, 0, 0, 0, 0)
    channel.issue_column(t, 0, 0, 0, True)
    assert channel.cmd_bus_cycles == 2
    assert channel.data_bus_cycles == T.data_cycles


def test_iter_banks_covers_topology(channel):
    keys = [(r, b) for r, b, _ in channel.iter_banks()]
    assert keys == [(0, 0), (0, 1), (1, 0), (1, 1)]
