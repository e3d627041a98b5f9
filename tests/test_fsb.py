"""Tests for the front-side bus adapter."""

import pytest

from repro.controller.access import AccessType, EnqueueStatus
from repro.controller.system import MemorySystem
from repro.cpu.core import OoOCore
from repro.errors import ConfigError
from repro.sim.fsb import FSBAdapter
from repro.workloads.spec2000 import make_benchmark_trace


def test_rejects_bad_transfer_cycles(quiet_config):
    with pytest.raises(ConfigError):
        FSBAdapter(MemorySystem(quiet_config, "Burst_TH"), 0)


def test_write_payload_occupies_request_bus(quiet_config):
    bus = FSBAdapter(MemorySystem(quiet_config, "Burst_TH"))
    w1 = bus.make_access(AccessType.WRITE, 0x1000, 0)
    w2 = bus.make_access(AccessType.WRITE, 0x2000, 0)
    assert bus.enqueue(w1, 0) is EnqueueStatus.ACCEPTED
    # The 4-cycle payload blocks the next request.
    assert bus.enqueue(w2, 2) is EnqueueStatus.REJECTED_FULL
    assert bus.enqueue(w2, 3) is EnqueueStatus.REJECTED_FULL
    assert bus.enqueue(w2, 4) is EnqueueStatus.ACCEPTED


def test_read_request_is_single_slot(quiet_config):
    bus = FSBAdapter(MemorySystem(quiet_config, "Burst_TH"))
    r1 = bus.make_access(AccessType.READ, 0x1000, 0)
    r2 = bus.make_access(AccessType.READ, 0x2000, 0)
    assert bus.enqueue(r1, 0) is EnqueueStatus.ACCEPTED
    assert bus.enqueue(r2, 1) is EnqueueStatus.ACCEPTED


def test_read_fill_delayed_by_response_bus(quiet_config):
    plain = MemorySystem(quiet_config, "Burst_TH")
    bus = FSBAdapter(MemorySystem(quiet_config, "Burst_TH"))
    done_plain = done_bus = None
    access = plain.make_access(AccessType.READ, 0x1000, 0)
    plain.enqueue(access, 0)
    for _ in range(300):
        if plain.tick():
            done_plain = plain.cycle
            break
    access = bus.make_access(AccessType.READ, 0x1000, 0)
    bus.enqueue(access, 0)
    for _ in range(300):
        if bus.tick():
            done_bus = bus.cycle
            break
    assert done_plain is not None and done_bus is not None
    assert done_bus >= done_plain + bus.transfer_cycles


def test_closed_loop_run_through_fsb(config):
    trace = make_benchmark_trace("gzip", 500, seed=1)
    plain = OoOCore(MemorySystem(config, "Burst_TH"), trace).run()
    bus_system = FSBAdapter(MemorySystem(config, "Burst_TH"))
    bused = OoOCore(bus_system, trace).run()
    assert bused.loads == plain.loads
    # The bus adds latency but only moderately at baseline bandwidth.
    assert bused.mem_cycles >= plain.mem_cycles
    assert bused.mem_cycles < plain.mem_cycles * 1.6
    assert bus_system.idle


def test_idle_accounts_for_inflight_responses(quiet_config):
    bus = FSBAdapter(MemorySystem(quiet_config, "Burst_TH"))
    access = bus.make_access(AccessType.READ, 0x1000, 0)
    bus.enqueue(access, 0)
    saw_gap = False
    for _ in range(300):
        delivered = bus.tick()
        if delivered:
            break
        # The inner system may drain before the response crosses the
        # bus; the adapter must still report busy.
        if bus.system.idle and not bus.idle:
            saw_gap = True
    assert saw_gap
