"""Tests for multiprogrammed mixes (§6)."""

import pytest

from repro.controller.access import AccessType
from repro.controller.system import MemorySystem
from repro.cpu.core import OoOCore
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
