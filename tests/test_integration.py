"""End-to-end integration tests across the whole stack."""

import pytest

from repro.controller.access import AccessType
from repro.controller.system import MemorySystem
from repro.cpu.core import OoOCore
from repro.experiments.common import MECHANISMS, cell, clear_cache, resolve
from repro.workloads.spec2000 import make_benchmark_trace


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


@pytest.mark.parametrize("mech", MECHANISMS)
def test_closed_loop_drains_every_mechanism(config, mech):
    trace = make_benchmark_trace("gcc", 600, seed=2)
    system = MemorySystem(config, mech)
    result = OoOCore(system, trace).run()
    stats = system.stats
    reads = sum(r.op is AccessType.READ for r in trace)
    writes = len(trace) - reads
    assert result.loads == reads
    assert result.stores == writes
    assert stats.completed_reads + stats.forwarded_reads == reads
    assert stats.completed_writes == writes
    assert result.instructions >= sum(r.gap for r in trace)


def test_resolved_profile_cell():
    run = {"swim": cell("swim", "Burst_TH", 600, None, 1)}
    stats = resolve(run, jobs=1, progress=False)["swim"][0]
    assert stats.completed_reads > 0
    assert stats.cycles > 0
    assert 0 < stats.data_bus_utilization < 1


def test_reordering_beats_inorder_on_streaming(config):
    trace = make_benchmark_trace("swim", 1500, seed=1)
    cycles = {}
    for mech in ("BkInOrder", "Burst_TH"):
        system = MemorySystem(config, mech)
        cycles[mech] = OoOCore(system, trace).run().mem_cycles
    assert cycles["Burst_TH"] < cycles["BkInOrder"]


def test_identical_trace_identical_result(config):
    """The simulator is deterministic end to end."""
    trace = make_benchmark_trace("art", 500, seed=4)
    runs = []
    for _ in range(2):
        system = MemorySystem(config, "Burst_TH")
        runs.append(OoOCore(system, trace).run().mem_cycles)
    assert runs[0] == runs[1]


def test_row_hit_rate_ordering_on_streaming(config):
    """§5.2: mechanisms searching write queues for row hits (RowHit,
    Burst_WP) reach the highest hit rates."""
    trace = make_benchmark_trace("applu", 1500, seed=1)
    hits = {}
    for mech in ("BkInOrder", "RowHit", "Burst", "Burst_WP"):
        system = MemorySystem(config, mech)
        OoOCore(system, trace).run()
        hits[mech] = system.stats.row_hit_rate
    assert hits["RowHit"] > hits["BkInOrder"]
    assert hits["Burst_WP"] >= hits["Burst"]


def test_stats_cycles_match_system_clock(config):
    trace = make_benchmark_trace("mesa", 400, seed=3)
    system = MemorySystem(config, "Intel")
    OoOCore(system, trace).run()
    assert system.stats.cycles == system.cycle
    hist_total = system.stats.outstanding_reads.total
    assert hist_total == system.cycle
