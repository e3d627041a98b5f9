"""Tests for the MemorySystem facade and the open-loop driver."""

from dataclasses import replace

import pytest

from repro.controller.access import AccessType, EnqueueStatus
from repro.controller.system import MemorySystem
from repro.cpu.core import OoOCore
from repro.errors import SchedulerError, TraceError
from repro.mapping.base import DecodedAddress
from repro.sim.engine import OpenLoopDriver, run_requests
from repro.workloads.spec2000 import make_benchmark_trace
from tests.conftest import make_request_stream
from tests.test_engine_fastfwd import fastfwd


def _addr(system, channel=0, row=0, col=0):
    return system.mapping.encode(DecodedAddress(channel, 0, 0, row, col))


def test_accesses_route_to_their_channel(quiet_config):
    system = MemorySystem(quiet_config, "Burst_TH")
    a0 = system.make_access(AccessType.READ, _addr(system, channel=0), 0)
    a1 = system.make_access(AccessType.READ, _addr(system, channel=1), 0)
    assert a0.channel == 0
    assert a1.channel == 1
    system.enqueue(a0, 0)
    system.enqueue(a1, 0)
    assert system.schedulers[0].pending_accesses() == 1
    assert system.schedulers[1].pending_accesses() == 1


def test_rejects_when_pool_full(quiet_config):
    cfg = replace(quiet_config, pool_size=2, write_queue_size=1, threshold=1)
    system = MemorySystem(cfg, "BkInOrder")
    statuses = [
        system.enqueue(
            system.make_access(AccessType.READ, _addr(system, row=i), 0), 0
        )
        for i in range(3)
    ]
    assert statuses[:2] == [EnqueueStatus.ACCEPTED] * 2
    assert statuses[2] is EnqueueStatus.REJECTED_FULL


def test_arrival_stamped_at_acceptance(quiet_config):
    system = MemorySystem(quiet_config, "Burst")
    access = system.make_access(AccessType.READ, _addr(system), 0)
    system.enqueue(access, 17)
    assert access.arrival == 17


def test_finalize_collects_bus_stats(quiet_config):
    system = MemorySystem(quiet_config, "Burst_TH")
    run_requests(system, make_request_stream(quiet_config, 50, seed=2))
    stats = system.stats
    assert stats.cycles == system.cycle
    assert stats.data_bus_cycles > 0
    assert 0 < stats.data_bus_utilization <= 1
    assert 0 < stats.address_bus_utilization <= 1


def test_refresh_happens_on_long_runs(config):
    """With real tREFI the refresh engine fires and is counted."""
    system = MemorySystem(config, "BkInOrder")
    run_requests(
        system,
        [(0, AccessType.READ, _addr(system))],
        max_cycles=10_000_000,
    )
    # Idle drain finishes long before tREFI; run the clock forward.
    for _ in range(config.timing.tREFI + config.timing.tRFC + 10):
        system.tick()
    system.finalize()
    assert system.stats.refreshes >= 1


def test_outstanding_sampling(quiet_config):
    system = MemorySystem(quiet_config, "Burst")
    run_requests(system, make_request_stream(quiet_config, 100, seed=7))
    reads_hist = system.stats.outstanding_reads
    assert reads_hist.total == system.cycle
    assert abs(sum(f for _, f in reads_hist.series()) - 1.0) < 1e-9


def test_driver_done_and_completion_count(quiet_config):
    system = MemorySystem(quiet_config, "Burst_TH")
    requests = make_request_stream(quiet_config, 120, seed=3)
    driver = OpenLoopDriver(system, requests)
    assert not driver.done
    driver.run()
    assert driver.done
    reads = [r for r in requests if r[1] is AccessType.READ]
    assert len([a for a in driver.completed if a.is_read]) == len(reads)


def test_driver_respects_arrival_times(quiet_config):
    system = MemorySystem(quiet_config, "BkInOrder")
    late = (400, AccessType.READ, _addr(system, row=3))
    driver = OpenLoopDriver(system, [late])
    driver.run()
    access = driver.completed[0]
    assert access.arrival >= 400


def test_driver_max_cycles_guard(quiet_config):
    system = MemorySystem(quiet_config, "BkInOrder")
    driver = OpenLoopDriver(
        system, [(10**7, AccessType.READ, _addr(system))]
    )
    with pytest.raises(SchedulerError):
        driver.run(max_cycles=100)


def test_core_max_cycles_guard(quiet_config):
    """The closed-loop run shares the open loop's overrun guard."""
    system = MemorySystem(quiet_config, "BkInOrder")
    core = OoOCore(system, make_benchmark_trace("swim", 200, seed=1))
    with pytest.raises(SchedulerError, match="exceeded 100 memory cycles"):
        core.run(max_cycles=100)


@pytest.mark.parametrize("fast", [False, True], ids=["sequential", "fast"])
def test_source_zero_requests_match_untagged_requests(quiet_config, fast):
    """A stream tagged with source 0 is the untagged stream, byte for
    byte: same stats, same completion order."""
    requests = make_request_stream(quiet_config, 200, seed=5, gap=12)
    tagged = [request + (0,) for request in requests]
    runs = []
    with fastfwd(fast):
        for stream in (requests, tagged):
            system = MemorySystem(quiet_config, "Burst_TH")
            driver = OpenLoopDriver(system, stream)
            driver.run()
            runs.append((
                system.stats.to_dict(),
                [(a.arrival, a.address, a.complete_cycle)
                 for a in driver.completed],
            ))
    assert runs[0] == runs[1]


def test_mechanism_name_recorded(quiet_config):
    assert MemorySystem(quiet_config, "Burst_TH").mechanism_name.startswith(
        "Burst_TH"
    )
    assert MemorySystem(quiet_config, "RowHit").mechanism_name == "RowHit"


@pytest.mark.parametrize("fleet", [False, True], ids=["open", "fleet"])
def test_driver_rejects_request_type_that_is_not_an_access_type(
    quiet_config, fleet
):
    """The driver enqueues every non-READ type as a write: two requests
    typed ``"read"`` and ``"READ"`` used to complete as two writes."""
    system = MemorySystem(quiet_config, "FCFS")
    requests = [
        (0, "read", _addr(system, row=1)),
        (1, "READ", _addr(system, row=2)),
    ]
    if fleet:
        requests = [request + (0,) for request in requests]
    with pytest.raises(TraceError, match="AccessType"):
        OpenLoopDriver(system, requests)
