"""Per-bank refresh policies: REFpb, DARP and SARP directed tests.

Device-level checks of the per-bank refresh machinery (only the
target bank busies for tRFCpb, JEDEC round-robin order, DARP pull-in
eligibility flips with queue occupancy, SARP subarray exclusion) plus
oracle-rulebook checks (per-bank postpone bound hits exactly the
starved bank, tRREFD spacing, SARP round-robin conformance) and the
engine/checkpoint regressions for the new policies.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.controller.system import MemorySystem
from repro.dram.channel import Channel
from repro.dram.commands import TracedCommand
from repro.dram.oracle import (
    MAX_POSTPONED_REFRESHES,
    verify_commands,
)
from repro.dram.refresh import (
    DARPRefresher,
    PerBankRefresher,
    SARPRefresher,
)
from repro.dram.timing import DDR2_800
from repro.sim.config import baseline_config
from repro.sim.engine import OpenLoopDriver
from repro.workloads.spec2000 import make_benchmark_trace

from tests.test_engine_fastfwd import fastfwd
from tests.test_checkpoint import _row_stream, _stats_blob

#: Short-period refresh with an explicit per-bank window, so every
#: device-level scenario fits in a few hundred cycles.
T = replace(DDR2_800, tREFI=100, tRFC=20, tRFCpb=8)


def _channel(ranks=1, banks=2, subarray_rows=None):
    return Channel(T, 0, ranks=ranks, banks=banks,
                   subarray_rows=subarray_rows)


class _QuietScheduler:
    """Scheduler stand-in DARP consults: everything idle by default."""

    class _Pool:
        write_count = 0

    class _Config:
        threshold = 8

    def __init__(self):
        self.pool = self._Pool()
        self.config = self._Config()
        self.busy = set()

    def bank_queued_reads(self, rank, bank):
        return 1 if (rank, bank) in self.busy else 0

    def bank_queued_writes(self, rank, bank):
        return 0


# ----------------------------------------------------------------------
# REFpb device behaviour
# ----------------------------------------------------------------------


def test_refpb_busies_only_target_bank():
    channel = _channel()
    refresher = PerBankRefresher(channel)
    cycle = T.tREFI
    assert refresher.tick(cycle)
    bank0, bank1 = channel.ranks[0].banks
    assert bank0.refresh_busy_until == cycle + T.refpb_recovery
    assert not channel.can_activate_at(cycle + 1, 0, 0, row=0)
    # The sibling bank keeps serving accesses through the window.
    assert channel.can_activate_at(cycle + 1, 0, 1, row=0)
    assert bank1.refresh_busy_until == 0


def test_refpb_strict_round_robin():
    """The JEDEC pointer advances one bank per refresh, in order."""
    channel = _channel()
    refresher = PerBankRefresher(channel)
    cycle = T.tREFI
    assert refresher.tick(cycle)
    order = [channel.ranks[0].banks[b].refresh_pb_count for b in (0, 1)]
    assert order == [1, 0]
    # Bank 1 is next even if bank 0's next interval has also elapsed.
    cycle += 3 * T.tREFI
    assert refresher.tick(cycle)
    order = [channel.ranks[0].banks[b].refresh_pb_count for b in (0, 1)]
    assert order == [1, 1]


def test_refpb_spacing_blocks_back_to_back():
    """Two REFpb on one rank must sit tRREFD apart."""
    channel = _channel()
    rank = channel.ranks[0]
    channel.issue_refresh_pb(10, 0, 0)
    assert not rank.can_refresh_pb(10 + T.refpb_spacing - 1, 1)
    assert rank.can_refresh_pb(10 + T.refpb_spacing, 1)


# ----------------------------------------------------------------------
# DARP
# ----------------------------------------------------------------------


def test_darp_pulls_in_only_quiet_banks():
    """A bank with queued reads keeps its slot; an idle one donates it.

    The same cycle flips outcome purely on queue occupancy: with bank
    (0, 0) busy the pull-in goes to the next candidate; one cycle
    after it quiets down the pull-in lands on it.
    """
    channel = _channel()
    refresher = DARPRefresher(channel)
    scheduler = _QuietScheduler()
    refresher.bind_scheduler(scheduler)
    cycle = 10  # well before any deadline: opportunistic work only
    scheduler.busy = {(0, 0)}
    assert refresher.tick(cycle)
    assert channel.ranks[0].banks[0].refresh_pb_count == 0
    assert channel.ranks[0].banks[1].refresh_pb_count == 1
    scheduler.busy = set()
    cycle += T.refpb_spacing
    assert refresher.tick(cycle)
    assert channel.ranks[0].banks[0].refresh_pb_count == 1


def test_darp_pull_in_advances_idle_horizon():
    """The satellite bugfix: a pull-in must recompute the cached
    ``min(_due)`` so ``idle_until`` never holds a stale horizon the
    next-event engine would leap past."""
    channel = _channel()
    refresher = DARPRefresher(channel)
    refresher.bind_scheduler(_QuietScheduler())
    before = refresher.idle_until
    assert refresher.tick(10)  # pull-in (no deadline is near)
    assert refresher.idle_until > before
    horizon = refresher.PULL_IN_MAX * T.tREFI
    assert refresher.idle_until == min(refresher._due[0]) - horizon


def test_darp_out_of_order_deadline_service():
    """Earliest due bank goes first, not the round-robin pointer."""
    channel = _channel()
    refresher = DARPRefresher(channel)
    refresher.bind_scheduler(_QuietScheduler())
    # Make bank 1's deadline earlier than bank 0's.
    refresher._due[0] = [300, 120]
    refresher._min_due = 120
    assert refresher.tick(300)
    assert channel.ranks[0].banks[1].refresh_pb_count == 1
    assert channel.ranks[0].banks[0].refresh_pb_count == 0


# ----------------------------------------------------------------------
# SARP
# ----------------------------------------------------------------------


def test_sarp_blocks_same_subarray_only():
    """During a subarray refresh, only that subarray is excluded."""
    channel = _channel(banks=1, subarray_rows=4)  # rows 0-3 = sa 0
    rank = channel.ranks[0]
    channel.issue_refresh_pb(10, 0, 0, subarray=0)
    mid = 10 + T.refpb_recovery - 1
    assert not rank.can_activate(mid, 0, row=2)    # same subarray
    assert rank.can_activate(mid, 0, row=6)        # different subarray
    assert rank.can_activate(10 + T.refpb_recovery, 0, row=2)


def test_sarp_walks_subarrays_round_robin():
    channel = _channel(banks=1, subarray_rows=4)
    refresher = SARPRefresher(channel, subarrays=4)
    bank = channel.ranks[0].banks[0]
    cycle = T.tREFI
    seen = []
    for _ in range(4):
        assert refresher.tick(cycle)
        seen.append(bank.refreshing_subarray)
        cycle += T.tREFI
    assert seen == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# Oracle rulebook
# ----------------------------------------------------------------------


def _refpb(cycle, bank, subarray=None):
    return TracedCommand(cycle, "REFPB", 0, bank, None, None,
                         subarray=subarray)


def _rules(commands, end_cycle=None, **kwargs):
    return {
        v.rule
        for v in verify_commands(T, 1, 2, commands, end_cycle, **kwargs)
    }


def _on_schedule(bank, count, start=None):
    """REFpb commands keeping one bank exactly on its tREFI schedule."""
    start = T.tREFI if start is None else start
    return [_refpb(start + i * T.tREFI, bank) for i in range(count)]


def test_oracle_accepts_on_schedule_refpb():
    commands = sorted(
        _on_schedule(0, 4) + _on_schedule(1, 4, start=T.tREFI + 50),
        key=lambda c: c.cycle,
    )
    assert _rules(commands, end_cycle=5 * T.tREFI) == set()


def test_oracle_postpone_bound_hits_exactly_the_starved_bank():
    """Bank 0 stays on schedule; bank 1's first refresh lands just
    past its 8 x tREFI postpone allowance (and clear of tRREFD from
    bank 0's on-schedule refresh)."""
    late = T.tREFI + MAX_POSTPONED_REFRESHES * T.tREFI + T.refpb_spacing + 2
    commands = sorted(
        _on_schedule(0, 12) + [_refpb(late, 1)],
        key=lambda c: c.cycle,
    )
    violations = verify_commands(T, 1, 2, commands, end_cycle=late + 1)
    assert {v.rule for v in violations} == {"tREFI"}
    assert all("bank 1" in v.message for v in violations)


def test_oracle_end_of_run_audit_is_per_bank():
    """A bank never refreshed past its deadline flags at finish()."""
    end = T.tREFI + MAX_POSTPONED_REFRESHES * T.tREFI + 1
    commands = _on_schedule(0, 10)
    violations = verify_commands(T, 1, 2, commands, end_cycle=end)
    assert {v.rule for v in violations} == {"tREFI"}
    assert all("bank 1" in v.message for v in violations)


def test_oracle_flags_trrefd_violation():
    commands = [_refpb(100, 0), _refpb(100 + T.refpb_spacing - 1, 1)]
    assert "tRREFD" in _rules(commands, end_cycle=200)


def test_oracle_flags_refpb_during_own_window():
    commands = [_refpb(100, 0), _refpb(100 + T.refpb_spacing, 0)]
    assert T.refpb_spacing < T.refpb_recovery  # premise of the test
    assert "tRFCpb" in _rules(commands, end_cycle=200)


def test_oracle_flags_act_into_refreshing_bank():
    commands = [
        _refpb(100, 0),
        TracedCommand(101, "ACT", 0, 0, 5, None),
    ]
    assert "tRFCpb" in _rules(commands, end_cycle=200)


def test_oracle_allows_act_to_other_subarray_during_sarp_window():
    commands = [
        _refpb(100, 0, subarray=0),
        TracedCommand(101, "ACT", 0, 0, 6, None),  # row 6 = subarray 1
    ]
    rules = _rules(commands, end_cycle=200, subarray_rows=4, subarrays=4)
    assert "tRFCpb" not in rules
    # Without geometry the oracle must assume the worst and block.
    assert "tRFCpb" in _rules(commands, end_cycle=200)


def test_oracle_enforces_sarp_round_robin():
    commands = [_refpb(100, 0, subarray=2)]
    rules = _rules(commands, end_cycle=150, subarray_rows=4, subarrays=4)
    assert "sarp-rr" in rules


# ----------------------------------------------------------------------
# Engine byte-identity and checkpoint resume for the new policies
# ----------------------------------------------------------------------


def _policy_config(policy):
    return baseline_config(
        channels=1,
        ranks=2,
        banks=2,
        rows=4096,
        subarrays=4,
        pool_size=32,
        write_queue_size=8,
        threshold=6,
        timing=replace(DDR2_800, tREFI=150, tRFC=20),
        refresh_policy=policy,
    )


def _closed_loop(policy, fast):
    from repro.cpu.core import OoOCore

    with fastfwd(fast):
        config = _policy_config(policy)
        system = MemorySystem(config, "Burst_TH", oracle=True)
        commands = []
        for channel in system.channels:
            channel.add_command_listener(
                lambda event, log=commands: log.append(repr(event))
            )
        trace = make_benchmark_trace("swim", accesses=700, seed=3)
        result = OoOCore(system, trace).run()
    return result.to_dict(), system.stats.to_dict(), commands


@pytest.mark.parametrize("policy", ["REFpb", "DARP", "SARP"])
def test_fastfwd_identical_under_policy(policy):
    """Fast-forward and sequential runs agree under every policy —
    the regression for DARP pull-ins moving due cycles forward."""
    slow = _closed_loop(policy, fast=False)
    fast = _closed_loop(policy, fast=True)
    assert fast == slow, f"{policy} diverged under fast-forward"


@pytest.mark.parametrize("policy", ["REFpb", "DARP", "SARP"])
def test_checkpoint_resume_under_policy(tmp_path, policy):
    """Mid-window snapshots restore the per-bank refresh state."""
    from repro.checkpoint import load_checkpoint, save_checkpoint

    config = _policy_config(policy)
    requests = _row_stream(config, 120, rows=8, gap=3, write_every=5)
    system = MemorySystem(config, "Burst_TH", oracle=True)
    driver = OpenLoopDriver(system, list(requests))
    hit = False
    while not driver.done:
        if any(
            bank.refresh_busy_until > driver.system.cycle
            for channel in system.channels
            for _, _, bank in channel.iter_banks()
        ):
            hit = True
            break
        driver.step()
    assert hit, "no per-bank refresh window was ever open"
    path = tmp_path / f"{policy}.ckpt"
    save_checkpoint(str(path), driver)
    driver.run()
    reference = _stats_blob(system)

    driver = OpenLoopDriver(
        MemorySystem(config, "Burst_TH", oracle=True), list(requests)
    )
    driver = load_checkpoint(str(path), driver)
    driver.run()
    resumed = driver.system
    assert _stats_blob(resumed) == reference
