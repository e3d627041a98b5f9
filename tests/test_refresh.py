"""Unit tests for the auto-refresh controller."""

from dataclasses import replace

import pytest

from repro.dram.channel import Channel
from repro.dram.refresh import RefreshController
from repro.dram.timing import DDR2_800

T = DDR2_800


@pytest.fixture
def channel():
    return Channel(T, 0, ranks=2, banks=2)


def test_disabled_without_trefi():
    timing = replace(T, tREFI=None, tRFC=0)
    channel = Channel(timing, 0, ranks=1, banks=1)
    refresher = RefreshController(channel)
    assert not refresher.enabled
    assert refresher.pending_rank(10**9) is None
    assert not refresher.tick(10**9)


def test_not_due_before_trefi(channel):
    refresher = RefreshController(channel)
    assert refresher.pending_rank(T.tREFI - 1) is None
    assert not refresher.tick(0)


def test_refresh_issues_when_due(channel):
    refresher = RefreshController(channel)
    due = refresher.pending_rank(T.tREFI)
    assert due == 0
    assert refresher.tick(T.tREFI)
    assert channel.ranks[0].refresh_count == 1
    # Rescheduled one interval later.
    assert refresher.pending_rank(T.tREFI) is None


def test_rank_staggering(channel):
    """Ranks refresh at different times to avoid collisions."""
    refresher = RefreshController(channel)
    assert refresher.pending_rank(T.tREFI) == 0
    refresher.tick(T.tREFI)
    # Rank 1 becomes due half an interval later, not simultaneously.
    assert refresher.pending_rank(T.tREFI) is None
    later = T.tREFI + T.tREFI // 2
    assert refresher.pending_rank(later) == 1


def test_precharges_open_bank_first(channel):
    refresher = RefreshController(channel)
    channel.issue_activate(0, 0, 0, row=3)
    cycle = T.tREFI
    assert refresher.tick(cycle)  # issues the precharge
    assert channel.ranks[0].banks[0].open_row is None
    assert channel.ranks[0].refresh_count == 0
    # Next opportunity (after tRP) performs the refresh itself.
    done = False
    while not done and cycle < T.tREFI + 100:
        cycle += 1
        refresher.tick(cycle)
        done = channel.ranks[0].refresh_count == 1
    assert done


def test_refresh_holds_rank_busy(channel):
    refresher = RefreshController(channel)
    refresher.tick(T.tREFI)
    rank = channel.ranks[0]
    assert rank.refresh_busy_until == T.tREFI + T.tRFC
    assert not channel.can_activate_at(T.tREFI + 1, 0, 0)
    assert channel.can_activate_at(T.tREFI + T.tRFC, 0, 0)


def test_refresh_creates_row_empties_under_open_page():
    """§5.2: "With static open page policy, most row empties happen
    after SDRAM auto refreshes as banks are precharged."  A workload
    that always re-reads one row sees hits except right after the
    refresh engine closed the bank."""
    from repro.controller.access import AccessType
    from repro.controller.system import MemorySystem
    from repro.dram.channel import RowState
    from repro.mapping.base import DecodedAddress
    from repro.sim.config import baseline_config
    from repro.sim.engine import run_requests

    config = baseline_config(channels=1, ranks=1, banks=1, rows=16)
    system = MemorySystem(config, "BkInOrder")
    address = system.mapping.encode(DecodedAddress(0, 0, 0, 3, 0))
    interval = config.timing.tREFI // 4
    requests = [
        (i * interval, AccessType.READ, address) for i in range(1, 20)
    ]
    run_requests(system, requests)
    states = system.stats.row_states
    assert states[RowState.EMPTY] >= 3      # the post-refresh accesses
    assert states[RowState.CONFLICT] == 0   # single row: never conflicts
    assert states[RowState.HIT] > states[RowState.EMPTY]


def _parking_run(monkeypatch, fast):
    """Rank 0 falls due while its open bank is still inside tRAS.

    A stream of row hits to rank 1 keeps the command bus busy, so the
    memory system ticks through the wait instead of leaping it.
    Returns the command trace and the cycles the REFab engine ticked.
    """
    from repro.controller.access import AccessType
    from repro.controller.system import MemorySystem
    from repro.mapping.base import DecodedAddress
    from repro.sim.config import baseline_config
    from repro.sim.engine import run_requests

    calls = []
    tick = RefreshController.tick

    def counted(self, cycle):
        calls.append(cycle)
        return tick(self, cycle)

    config = baseline_config(channels=1, ranks=2, banks=2, rows=16)
    due = config.timing.tREFI
    trace = []
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_FASTFWD", "1" if fast else "0")
        patch.setattr(RefreshController, "tick", counted)
        system = MemorySystem(config, "BkInOrder", oracle=True)
        system.channels[0].add_command_listener(
            lambda event: trace.append(
                (event.cycle, event.kind, event.rank, event.bank)
            )
        )
        encode = system.mapping.encode
        requests = [
            (due - 10 + 4 * i, AccessType.READ,
             encode(DecodedAddress(0, 1, 0, 2, i)))
            for i in range(8)
        ]
        requests.append(
            (due - 5, AccessType.READ, encode(DecodedAddress(0, 0, 1, 3, 0)))
        )
        run_requests(system, sorted(requests))
    return trace, calls


def test_parked_refresh_issues_on_sequential_cycles(monkeypatch):
    """Parking skips the engine's no-op ticks, never its commands."""
    sequential, sequential_ticks = _parking_run(monkeypatch, fast=False)
    fast, fast_ticks = _parking_run(monkeypatch, fast=True)
    assert fast == sequential

    def first(kind, rank=0):
        return next(c for c, k, r, _ in sequential if k == kind and r == rank)

    act, pre, ref = first("ACT"), first("PRE"), first("REF")
    # The PRE waited out tRAS past the due cycle; the REF followed tRP.
    assert act < T.tREFI < pre == act + T.tRAS
    assert ref == pre + T.tRP
    assert len(fast_ticks) < len(sequential_ticks)

    # While rank 0 waits the engine stays parked, although rank 1's
    # commands keep the memory system ticking.
    def waiting(ticks):
        return [c for c in ticks if T.tREFI <= c <= ref]

    assert waiting(sequential_ticks) == list(range(T.tREFI, ref + 1))
    assert len(waiting(fast_ticks)) < (ref - T.tREFI) // 2
