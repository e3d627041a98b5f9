"""Unit tests for the out-of-order ROB/LSQ limit core."""

from dataclasses import replace


from repro.controller.access import AccessType
from repro.controller.system import MemorySystem
from repro.cpu.core import OoOCore
from repro.sim.config import CPUConfig
from repro.workloads.spec2000 import make_benchmark_trace
from repro.workloads.trace import TraceRecord


def _trace(entries):
    return [TraceRecord(gap, op, address) for gap, op, address in entries]


def test_pure_compute_runs_at_full_width(quiet_config):
    """A trace with one distant access retires gap instructions at
    width x clock-ratio per memory cycle."""
    system = MemorySystem(quiet_config, "BkInOrder")
    core = OoOCore(system, _trace([(80_000, AccessType.READ, 0)]))
    result = core.run()
    per_cycle = (
        quiet_config.cpu.width * quiet_config.cpu_cycles_per_mem_cycle
    )
    compute_cycles = 80_000 // per_cycle
    # Memory latency adds a tail, but the bulk is compute-bound.
    assert result.mem_cycles >= compute_cycles
    assert result.mem_cycles <= compute_cycles + 100
    assert result.instructions == 80_000 + 1  # gap + the load


def test_load_latency_serializes_dependent_window(quiet_config):
    """Loads spaced wider than the ROB cannot overlap: execution time
    grows linearly with the number of loads."""
    system = MemorySystem(quiet_config, "BkInOrder")
    rob = quiet_config.cpu.rob_entries
    n = 20
    trace = _trace([(rob + 50, AccessType.READ, i * 8192) for i in range(n)])
    result = OoOCore(system, trace).run()
    single = MemorySystem(quiet_config, "BkInOrder")
    one = OoOCore(single, _trace([(rob + 50, AccessType.READ, 0)])).run()
    assert result.mem_cycles > (n - 2) * (
        one.mem_cycles - 10
    ) / 1.5  # roughly linear


def test_clustered_loads_overlap(quiet_config):
    """Loads arriving with tiny gaps overlap in the memory system:
    much faster than serial execution."""
    n = 16
    addresses = [i * 1 << 16 for i in range(n)]
    clustered = _trace([(1, AccessType.READ, a) for a in addresses])
    serial = _trace(
        [(quiet_config.cpu.rob_entries + 50, AccessType.READ, a) for a in addresses]
    )
    t_clustered = OoOCore(
        MemorySystem(quiet_config, "Burst_TH"), clustered
    ).run()
    t_serial = OoOCore(
        MemorySystem(quiet_config, "Burst_TH"), serial
    ).run()
    assert t_clustered.mem_cycles < t_serial.mem_cycles / 2


def test_lsq_limits_outstanding_loads(quiet_config):
    cfg = replace(quiet_config, cpu=CPUConfig(lsq_entries=2))
    system = MemorySystem(cfg, "Burst_TH")
    trace = _trace([(0, AccessType.READ, i * 1 << 16) for i in range(12)])
    core = OoOCore(system, trace)
    peak = 0
    while not core.done:
        core.step()
        peak = max(peak, core._inflight_loads)
    assert peak <= 2


def _one_load(config):
    """The §2 ablation's core: one outstanding load."""
    return replace(config, cpu=replace(config.cpu, lsq_entries=1))


def test_one_entry_lsq_single_outstanding_load(quiet_config):
    system = MemorySystem(_one_load(quiet_config), "Burst_TH")
    trace = _trace([(0, AccessType.READ, i << 16) for i in range(6)])
    core = OoOCore(system, trace)
    while not core.done:
        core.step()
        assert system.pool.read_count <= 1
    assert core.loads == 6


def test_one_entry_lsq_slower_than_default_on_clustered_loads(quiet_config):
    trace = make_benchmark_trace("swim", 600, seed=1)
    one_load = OoOCore(
        MemorySystem(_one_load(quiet_config), "Burst_TH"), trace
    ).run()
    default = OoOCore(MemorySystem(quiet_config, "Burst_TH"), trace).run()
    assert one_load.mem_cycles > default.mem_cycles


def test_writes_do_not_block_retirement(quiet_config):
    """Posted writes: a store-only trace is compute-bound."""
    system = MemorySystem(quiet_config, "Burst_TH")
    trace = _trace([(10, AccessType.WRITE, i * 4096) for i in range(50)])
    result = OoOCore(system, trace).run()
    assert result.stores == 50
    assert result.head_block_cycles == 0


def test_full_write_queue_stalls_fetch(quiet_config):
    cfg = replace(
        quiet_config, pool_size=8, write_queue_size=2, threshold=1
    )
    system = MemorySystem(cfg, "Burst")
    # A read keeps the scheduler postponing writes, so stores back up.
    trace = _trace(
        [(0, AccessType.READ, 0xA0000)]
        + [(0, AccessType.WRITE, i * 4096) for i in range(10)]
    )
    result = OoOCore(system, trace).run()
    assert result.store_stall_cycles > 0
    assert result.stores == 10


def test_forwarded_load_retires_immediately(quiet_config):
    system = MemorySystem(quiet_config, "Burst_TH")
    trace = _trace(
        [
            (0, AccessType.WRITE, 0x5000),
            (0, AccessType.READ, 0x5000),
        ]
    )
    result = OoOCore(system, trace).run()
    assert system.stats.forwarded_reads == 1
    assert result.loads == 1


def test_result_reports_cpu_cycles(quiet_config):
    system = MemorySystem(quiet_config, "BkInOrder")
    result = OoOCore(system, _trace([(100, AccessType.READ, 0)])).run()
    ratio = quiet_config.cpu_cycles_per_mem_cycle
    assert result.cpu_cycles == result.mem_cycles * ratio
    assert 0 < result.ipc <= quiet_config.cpu.width * 1.0
    # The run also records its totals in SimStats.
    assert result.head_block_cycles > 0
    assert system.stats.instructions == result.instructions
    assert system.stats.cpu_stall_cycles == result.head_block_cycles


def test_done_only_after_drain(quiet_config):
    system = MemorySystem(quiet_config, "Burst_TH")
    core = OoOCore(system, _trace([(0, AccessType.READ, 0)]))
    assert not core.done
    core.run()
    assert core.done
    assert system.idle
