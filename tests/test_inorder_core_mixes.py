"""Tests for the in-order core model and multiprogrammed mixes (§6)."""

import pytest

from repro.controller.access import AccessType
from repro.controller.system import MemorySystem
from repro.cpu.core import OoOCore
from repro.cpu.inorder import InOrderCore
from repro.errors import ConfigError
from repro.workloads.mixes import (
    CORE_STRIDE_BYTES,
    STANDARD_MIXES,
    interleave_traces,
    make_mix_trace,
)
from repro.workloads.spec2000 import make_benchmark_trace
from repro.workloads.trace import TraceRecord


def _trace(entries):
    return [TraceRecord(g, op, a) for g, op, a in entries]


# ----------------------------------------------------------------- core


def test_inorder_single_outstanding_load(quiet_config):
    system = MemorySystem(quiet_config, "Burst_TH")
    trace = _trace([(0, AccessType.READ, i << 16) for i in range(6)])
    core = InOrderCore(system, trace)
    while not core.done:
        core.step()
        assert system.pool.read_count <= 1
    assert core.loads == 6


def test_inorder_slower_than_ooo_on_clustered_loads(quiet_config):
    trace = make_benchmark_trace("swim", 600, seed=1)
    in_order = InOrderCore(
        MemorySystem(quiet_config, "Burst_TH"), trace
    ).run()
    out_of_order = OoOCore(
        MemorySystem(quiet_config, "Burst_TH"), trace
    ).run()
    assert in_order.mem_cycles > out_of_order.mem_cycles


def test_inorder_counts_and_completion(quiet_config):
    system = MemorySystem(quiet_config, "RowHit")
    trace = _trace(
        [(10, AccessType.READ, 0x10000), (5, AccessType.WRITE, 0x20000)]
    )
    result = InOrderCore(system, trace).run()
    assert result.loads == 1
    assert result.stores == 1
    assert result.instructions == 16  # 10 + 5 gap insts + the load
    assert system.idle


def test_inorder_run_records_instructions_and_stalls(quiet_config):
    """Both cores record their totals in SimStats, not only OoOCore."""
    system = MemorySystem(quiet_config, "Burst_TH")
    result = InOrderCore(system, make_benchmark_trace("swim", 300, 1)).run()
    assert result.instructions > 0
    assert result.head_block_cycles > 0
    assert system.stats.instructions == result.instructions
    assert system.stats.cpu_stall_cycles == result.head_block_cycles


def test_inorder_forwarded_load_does_not_block(quiet_config):
    system = MemorySystem(quiet_config, "Burst_TH")
    trace = _trace(
        [(0, AccessType.WRITE, 0x3000), (0, AccessType.READ, 0x3000)]
    )
    result = InOrderCore(system, trace).run()
    assert system.stats.forwarded_reads == 1
    assert result.loads == 1


# ----------------------------------------------------------------- mixes


def test_interleave_orders_by_instruction_position():
    a = _trace([(10, AccessType.READ, 0x40), (10, AccessType.READ, 0x80)])
    b = _trace([(15, AccessType.READ, 0x40)])
    merged = interleave_traces([a, b])
    # Positions: core0 at 10 and 20, core1 at 15.
    assert [r.gap for r in merged] == [10, 5, 5]
    assert merged[1].address == 0x40 + CORE_STRIDE_BYTES


def test_interleave_preserves_all_records():
    a = make_benchmark_trace("gzip", 50, seed=1)
    b = make_benchmark_trace("mcf", 70, seed=2)
    merged = interleave_traces([a, b])
    assert len(merged) == 120


def test_interleave_address_slices_disjoint():
    a = _trace([(0, AccessType.READ, 0x40)])
    b = _trace([(0, AccessType.READ, 0x40)])
    c = _trace([(0, AccessType.READ, 0x40)])
    merged = interleave_traces([a, b, c])
    addresses = {r.address for r in merged}
    assert len(addresses) == 3


def test_interleave_rejects_empty():
    with pytest.raises(ConfigError):
        interleave_traces([])


def test_make_mix_trace_limits_cores():
    with pytest.raises(ConfigError):
        make_mix_trace(["swim"] * 5, 10)
    with pytest.raises(ConfigError):
        make_mix_trace([], 10)


def test_standard_mixes_run_end_to_end(config):
    trace = make_mix_trace(STANDARD_MIXES["mixed_mix"], 250, seed=1)
    system = MemorySystem(config, "Burst_TH")
    result = OoOCore(system, trace).run()
    assert result.loads + result.stores == len(trace)
    # The mix touches all channels/banks of the system.
    assert system.stats.completed_reads > 0


def test_mix_gaps_never_negative():
    trace = make_mix_trace(("swim", "mcf"), 200, seed=3)
    assert all(r.gap >= 0 for r in trace)
