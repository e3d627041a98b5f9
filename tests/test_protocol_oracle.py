"""Tests for the independent DDR2 protocol-conformance oracle.

Three layers:

* directed command streams that are legal except for exactly one
  timing rule, which the oracle must name;
* live attachment over simulated workloads (zero violations, plus a
  deliberately broken scheduler that must be caught);
* trace round-tripping through ``save_trace`` / ``verify_trace``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.controller.inorder import BkInOrderScheduler
from repro.controller.intel import IntelScheduler
from repro.controller.rowhit import RowHitScheduler
from repro.controller.system import MemorySystem
from repro.core.scheduler import BurstScheduler
from repro.dram.commands import TracedCommand
from repro.dram.oracle import (
    MAX_POSTPONED_REFRESHES,
    ProtocolOracle,
    attach_oracles,
    verify_commands,
    verify_trace,
)
from repro.dram.timing import DDR2_800
from repro.dram.tracer import ChannelTracer, save_trace
from repro.errors import OracleViolationError
from repro.sim.config import baseline_config
from repro.sim.engine import OpenLoopDriver
from tests.conftest import make_request_stream

#: DDR2-800 with refresh disabled — the directed streams below only
#: exercise one rule each, so refresh deadlines must stay out of frame.
T = replace(DDR2_800, tREFI=None, tRFC=0)
#: A fast-refresh variant for the refresh-rule streams.
TR = replace(DDR2_800, tREFI=100, tRFC=10)


def rules_of(timing, commands, *, ranks=1, banks=8, end_cycle=None):
    """The set of rule names the oracle flags for a command stream."""
    violations = verify_commands(
        timing, ranks, banks, commands, end_cycle=end_cycle
    )
    return {v.rule for v in violations}


def act(cycle, bank=0, row=0, rank=0):
    return TracedCommand(cycle, "ACT", rank, bank, row, None)


def pre(cycle, bank=0, rank=0):
    return TracedCommand(cycle, "PRE", rank, bank, None, None)


def rd(cycle, bank=0, row=0, rank=0, data_end=None):
    return TracedCommand(cycle, "RD", rank, bank, row, data_end)


def wr(cycle, bank=0, row=0, rank=0):
    return TracedCommand(cycle, "WR", rank, bank, row, None)


def ref(cycle, rank=0):
    return TracedCommand(cycle, "REF", rank, 0, None, None)


# ----------------------------------------------------------------------
# Directed single-rule violation streams
# ----------------------------------------------------------------------
# DDR2-800 numbers used below: tCL=5 tRCD=5 tRP=5 tRAS=18 tRC=23
# data_cycles=4 tCWL=4 tWR=6 tWTR=3 tRTP=3 tRRD=3 tCCD=2 tRTRS=2 tFAW=18.


def test_legal_stream_has_no_violations():
    commands = [
        act(0),                 # open row 0
        rd(5),                  # tRCD met; data 10..14
        wr(11),                 # spacing 6 >= 4; data 15..19 (gap 1 ok)
        pre(25),                # write close point 11+4+4+6 = 25
        act(30),                # tRP met (25+5), tRC met (0+23)
        rd(35),
    ]
    assert rules_of(T, commands) == set()


def test_trcd_violation():
    assert "tRCD" in rules_of(T, [act(0), rd(4)])


def test_trp_violation():
    # PRE late enough that only the tRP chain (not tRC) binds.
    commands = [act(0), rd(5), pre(30), act(33)]
    assert rules_of(T, commands) == {"tRP"}


def test_tras_violation():
    assert rules_of(T, [act(0), pre(17)]) == {"tRAS"}


def test_trc_violation():
    # PRE at exactly tRAS makes tRP and tRC bind at the same cycle.
    commands = [act(0), rd(5), pre(18), act(22)]
    assert "tRC" in rules_of(T, commands)


def test_trtp_violation():
    # Read close point 16 + max(tRTP, data_cycles) = 20 dominates tRAS.
    commands = [act(0), rd(16), pre(19)]
    assert rules_of(T, commands) == {"tRTP"}


def test_twr_violation():
    # Write close point 5 + tCWL + data + tWR = 19 dominates tRAS = 18.
    commands = [act(0), wr(5), pre(18)]
    assert rules_of(T, commands) == {"tWR"}


def test_twtr_violation():
    # Write data ends at 13; reads must wait until 13 + tWTR = 16.
    commands = [act(0), wr(5), rd(15)]
    assert rules_of(T, commands) == {"tWTR"}


def test_trrd_violation():
    commands = [act(0, bank=0), act(2, bank=1)]
    assert rules_of(T, commands) == {"tRRD"}


def test_tfaw_violation():
    # Four activates at tRRD pace open a window; the fifth is early.
    commands = [act(3 * b, bank=b) for b in range(4)] + [act(12, bank=4)]
    assert rules_of(T, commands) == {"tFAW"}


def test_tccd_violation():
    commands = [act(0), rd(5), rd(7)]
    assert "tCCD" in rules_of(T, commands)


def test_data_bus_overlap_violation():
    # Different banks, so per-bank tCCD does not apply — but the two
    # bursts (10..14 and 13..17) would overlap on the shared data bus.
    commands = [act(0, bank=0), act(3, bank=1), rd(5, bank=0), rd(8, bank=1)]
    assert rules_of(T, commands) == {"data-bus"}


def test_rank_turnaround_gap():
    # Same direction, different ranks: the bus needs tRTRS idle cycles.
    commands = [
        act(0, rank=0),
        act(3, rank=1),
        rd(5, rank=0),           # data 10..14
        rd(10, rank=1),          # data 15..19, gap 1 < tRTRS=2
    ]
    assert rules_of(T, commands, ranks=2) == {"data-bus"}


def test_command_bus_one_per_cycle():
    commands = [act(0, bank=0), act(0, bank=4)]
    assert "cmd-bus" in rules_of(T, commands)


def test_state_violations():
    assert "state" in rules_of(T, [rd(0)])            # column on idle bank
    assert "state" in rules_of(T, [pre(0)])           # precharge idle bank
    assert "state" in rules_of(T, [act(0), act(25)])  # act on open bank
    # Column to a row other than the open one.
    assert "state" in rules_of(T, [act(0, row=1), rd(5, row=2)])
    assert "state" in rules_of(T, [rd(0, rank=3)], ranks=2)  # no such rank


def test_data_window_cross_check():
    # Correct data_end for RD at 5 is 5 + tCL + data_cycles = 14.
    assert rules_of(T, [act(0), rd(5, data_end=14)]) == set()
    assert rules_of(T, [act(0), rd(5, data_end=20)]) == {"data-window"}


def test_trfc_rank_busy_violation():
    assert rules_of(TR, [ref(0), act(5)]) == {"tRFC"}
    assert "tRFC" in rules_of(TR, [ref(0), ref(5)])


def test_refresh_with_open_row_violation():
    assert "state" in rules_of(TR, [act(0), ref(30)])


def test_trefi_postpone_bound():
    allowed = (MAX_POSTPONED_REFRESHES + 1) * TR.tREFI
    assert rules_of(TR, [ref(0), ref(allowed)]) == set()
    assert rules_of(TR, [ref(0), ref(allowed + 1)]) == {"tREFI"}


def test_trefi_end_of_run_audit():
    allowed = (MAX_POSTPONED_REFRESHES + 1) * TR.tREFI
    assert rules_of(TR, [ref(0)], end_cycle=allowed) == set()
    assert rules_of(TR, [ref(0)], end_cycle=allowed + 1) == {"tREFI"}


def test_strict_mode_raises_with_excerpt():
    oracle = ProtocolOracle(T, ranks=1, banks=8, strict=True)
    oracle.observe(act(0))
    with pytest.raises(OracleViolationError) as err:
        oracle.observe(rd(4))
    assert "tRCD" in str(err.value)
    assert "recent schedule" in str(err.value)
    assert "ACT" in str(err.value)


# ----------------------------------------------------------------------
# Live attachment
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mech", ["BkInOrder", "RowHit", "Burst_TH", "FCFS"])
def test_live_workload_is_conformant(mech):
    """Random workloads under a strict oracle raise nothing."""
    timing = replace(DDR2_800, tREFI=400, tRFC=20)
    config = baseline_config(
        timing=timing, channels=1, ranks=2, banks=4, rows=32
    )
    system = MemorySystem(config, mech)
    requests = make_request_stream(config, 400, seed=9, write_frac=0.35)
    oracles = attach_oracles(system)
    cycles = OpenLoopDriver(system, requests).run()
    assert cycles > 0
    assert sum(o.commands_checked for o in oracles) > len(requests)
    assert all(not o.violations for o in oracles)


class _TRPSkipping:
    """Mixin, deliberately broken: forgets every pending tRP/tRC wait.

    Zeroing the bank and rank activate gates before the legality check
    makes the device model accept activates immediately after a
    precharge — exactly the class of model bug the independent oracle
    exists to catch.  Both legality hooks are broken the same way so
    the bug survives either engine mode: the sequential loop asks
    ``can_issue_access``, the next-event fast path the timing kernel
    ``_flat_earliest`` (also behind ``earliest_issue_cycle``), whose
    stamp cache must be broken through too, or it would serve the
    pre-mutation timing.
    """

    def _forget_trp(self, access):
        bank = self.channel.ranks[access.rank].banks[access.bank]
        bank.ready_activate = 0
        self.channel.ranks[access.rank].ready_activate = 0

    def can_issue_access(self, access, cycle):
        self._forget_trp(access)
        return super().can_issue_access(access, cycle)

    def _flat_earliest(self, flat, i, access, cycle):
        self._forget_trp(access)
        if flat is not None:
            flat.bstamp[i] = -1  # defeat the stamp cache: recompute now
        return super()._flat_earliest(flat, i, access, cycle)


#: Every mechanism with a fast-mode flat pass, broken the same way.
_BROKEN_SCHEDULERS = [
    type(f"BrokenNoTRP{base.__name__}", (_TRPSkipping, base), {})
    for base in (
        BkInOrderScheduler,
        RowHitScheduler,
        IntelScheduler,
        BurstScheduler,
    )
]


def test_oracle_catches_broken_scheduler(small_config, monkeypatch):
    """A scheduler that skips tRP waits must trip the oracle.

    Crossed over every flat-pass mechanism and both engine modes: the
    fast engine's passes all ask the one timing kernel, so breaking it
    must surface in every one of them.
    """
    requests = make_request_stream(
        small_config, 200, seed=3, write_frac=0.3, rows=8
    )
    for broken in _BROKEN_SCHEDULERS:
        for fastfwd in ("0", "1"):
            monkeypatch.setenv("REPRO_FASTFWD", fastfwd)
            system = MemorySystem(small_config, broken)
            attach_oracles(system, strict=True)
            case = f"{broken.__name__} REPRO_FASTFWD={fastfwd}"
            try:
                OpenLoopDriver(system, list(requests)).run()
            except OracleViolationError as err:
                message = str(err)
            else:
                pytest.fail(f"{case}: the oracle raised nothing")
            assert "[tRP]" in message or "[tRC]" in message, case


def test_refresh_not_starved_under_steady_load():
    """Regression: a steady single-row stream must not starve refresh.

    The oracle originally caught the refresh controller waiting
    forever for all-banks-idle while the scheduler kept re-activating
    the rank (tREFI violation after ~2600 cycles).  The fix blocks new
    activates on a rank whose refresh is due (``Rank.refresh_pending``).
    """
    timing = replace(DDR2_800, tREFI=120, tRFC=20)
    config = baseline_config(
        timing=timing, channels=1, ranks=1, banks=2, rows=16
    )
    system = MemorySystem(config, "RowHit")
    # Back-to-back row hits to one bank: without the refresh_pending
    # gate the bank never goes idle and refresh never issues.
    requests = make_request_stream(
        config, 600, seed=1, write_frac=0.0, rows=1, gap=2
    )
    oracles = attach_oracles(system)
    cycles = OpenLoopDriver(system, requests).run()
    assert all(not o.violations for o in oracles)
    assert system.channels[0].ranks[0].refresh_count >= cycles // (
        9 * timing.tREFI
    )
    assert system.channels[0].ranks[0].refresh_count > 0


# ----------------------------------------------------------------------
# Trace round trip
# ----------------------------------------------------------------------


def test_trace_round_trip_verifies(tmp_path, small_config):
    system = MemorySystem(small_config, "Burst")
    tracer = ChannelTracer(system.channels[0])
    requests = make_request_stream(small_config, 120, seed=5)
    OpenLoopDriver(system, requests).run()
    path = tmp_path / "burst.trace"
    save_trace(
        str(path),
        tracer.commands,
        small_config.timing,
        ranks=small_config.ranks,
        banks=small_config.banks,
    )
    assert verify_trace(str(path)) == []


def test_trace_round_trip_catches_injected_violation(tmp_path):
    path = tmp_path / "bad.trace"
    save_trace(str(path), [act(0), rd(4)], T, ranks=1, banks=8)
    violations = verify_trace(str(path))
    assert [v.rule for v in violations] == ["tRCD"]
