"""Tests for the channel tracer and the online hazard monitor."""

import pytest

from repro.controller.access import AccessType
from repro.controller.system import MemorySystem
from repro.core.validate import HazardMonitor
from repro.dram.tracer import ChannelTracer, TracedCommand
from repro.errors import SchedulerError
from repro.mapping.base import DecodedAddress
from repro.sim.engine import OpenLoopDriver
from tests.conftest import make_request_stream


def _addr(system, rank=0, bank=0, row=0, col=0):
    return system.mapping.encode(DecodedAddress(0, rank, bank, row, col))


def test_tracer_records_full_schedule(small_config):
    system = MemorySystem(small_config, "Burst")
    tracer = ChannelTracer(system.channels[0])
    OpenLoopDriver(
        system,
        [
            (0, AccessType.READ, _addr(system, row=1)),
            (0, AccessType.READ, _addr(system, row=1, col=2)),
        ],
    ).run()
    kinds = [c.kind for c in tracer.commands]
    assert kinds == ["ACT", "RD", "RD"]
    assert tracer.last_data_end == max(
        c.data_end for c in tracer.commands if c.data_end
    )
    assert len(tracer) == 3
    text = tracer.render()
    assert "ACT" in text and "RD" in text


def test_tracer_detach_stops_recording_and_reattach_resumes(small_config):
    system = MemorySystem(small_config, "Burst")
    channel = system.channels[0]
    tracer = ChannelTracer(channel)
    OpenLoopDriver(
        system, [(0, AccessType.READ, _addr(system, row=1))]
    ).run()
    recorded = len(tracer)
    assert recorded > 0 and tracer.attached
    tracer.detach()
    assert not tracer.attached
    OpenLoopDriver(
        system, [(0, AccessType.READ, _addr(system, row=2))]
    ).run()
    assert len(tracer) == recorded  # nothing recorded while detached
    tracer.attach()
    OpenLoopDriver(
        system, [(0, AccessType.READ, _addr(system, row=3))]
    ).run()
    assert len(tracer) > recorded
    tracer.detach()
    tracer.detach()  # idempotent


def test_observers_stack_and_unstack_in_any_order(small_config):
    """Tracers, the oracle and the hazard monitor may be attached and
    detached in any interleaving without disturbing each other."""
    from repro.dram.oracle import attach_oracles

    system = MemorySystem(small_config, "Burst_TH")
    channel = system.channels[0]
    first = ChannelTracer(channel)
    monitor = HazardMonitor(system)
    [oracle] = attach_oracles(system)
    second = ChannelTracer(channel)

    OpenLoopDriver(
        system,
        [
            (0, AccessType.READ, _addr(system, row=1)),
            (0, AccessType.WRITE, _addr(system, row=2)),
        ],
    ).run()
    assert len(first) == len(second) > 0
    assert oracle.commands_checked == len(first)
    assert monitor.checked_transfers == 2

    # Detach in an order unrelated to attachment order.
    first.detach()
    monitor.detach()
    OpenLoopDriver(
        system, [(0, AccessType.READ, _addr(system, row=3))]
    ).run()
    # The survivors kept observing; the detached ones went quiet.
    assert len(second) > len(first)
    assert oracle.commands_checked == len(second)
    assert monitor.checked_transfers == 2
    second.detach()
    channel.remove_command_listener(oracle.observe)
    OpenLoopDriver(
        system, [(0, AccessType.READ, _addr(system, row=4))]
    ).run()
    assert oracle.commands_checked == len(second)


def test_hazard_monitor_detach_restores_issue_for(small_config):
    system = MemorySystem(small_config, "Burst")
    originals = [s.issue_for for s in system.schedulers]
    monitor = HazardMonitor(system)
    assert all(
        s.issue_for != orig
        for s, orig in zip(system.schedulers, originals)
    )
    monitor.detach()
    assert all(
        s.issue_for == orig
        for s, orig in zip(system.schedulers, originals)
    )
    monitor.detach()  # idempotent


def test_traced_command_str():
    act = TracedCommand(3, "ACT", 0, 1, 7, None)
    pre = TracedCommand(9, "PRE", 0, 1, None, None)
    read = TracedCommand(12, "RD", 0, 1, 7, 21)
    assert "ACT" in str(act) and "row=7" in str(act)
    assert "PRE" in str(pre)
    assert "data_end=21" in str(read)


@pytest.mark.parametrize(
    "mech",
    ["BkInOrder", "RowHit", "Intel", "Intel_RP", "Burst", "Burst_RP",
     "Burst_WP", "Burst_TH", "Burst_DYN"],
)
def test_hazard_monitor_silent_on_correct_mechanisms(small_config, mech):
    """Every shipped mechanism passes the §3.4 hazard checks."""
    system = MemorySystem(small_config, mech)
    monitor = HazardMonitor(system)
    requests = make_request_stream(
        small_config, 250, seed=17, write_frac=0.4, rows=4
    )
    OpenLoopDriver(system, requests).run()
    assert monitor.checked_transfers > 0


def test_hazard_monitor_catches_violations(small_config):
    """A deliberately broken access ordering trips the monitor."""
    system = MemorySystem(small_config, "Burst")
    monitor = HazardMonitor(system)
    address = _addr(system, row=1)
    young = system.make_access(AccessType.READ, address, 100)
    old_write = system.make_access(AccessType.WRITE, address, 5)
    monitor._check(young)
    with pytest.raises(SchedulerError):
        monitor._check(old_write)
