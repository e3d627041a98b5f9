"""Tests for the row-policy predictor and the per-source fairness
analysis of CMP mixes."""

from dataclasses import replace

import pytest

from repro.analysis.fairness import per_source_read_latency, speedup_jain
from repro.controller.access import AccessType
from repro.controller.rowpolicy import (
    CLOSE_THRESHOLD,
    RowPolicyPredictor,
)
from repro.controller.system import MemorySystem
from repro.cpu.core import OoOCore
from repro.dram.channel import RowState
from repro.errors import ConfigError
from repro.sim.engine import OpenLoopDriver
from repro.workloads.mixes import interleave_traces, make_mix_trace
from repro.workloads.spec2000 import make_benchmark_trace
from repro.workloads.trace import TraceRecord, load_trace, save_trace
from tests.conftest import make_request_stream


# ------------------------------------------------------ row policy [22]


def test_predictor_learns_open_from_hits():
    predictor = RowPolicyPredictor(initial=CLOSE_THRESHOLD)

    class Access:
        rank, bank, row = 0, 0, 5

    for _ in range(3):
        predictor.observe(Access, RowState.HIT)
    assert not predictor.should_close(0, 0)


def test_predictor_learns_close_from_conflicts():
    predictor = RowPolicyPredictor(initial=0)

    class Access:
        rank, bank, row = 0, 0, 5

    for _ in range(3):
        predictor.observe(Access, RowState.CONFLICT)
    assert predictor.should_close(0, 0)


def test_predictor_empty_training_uses_closed_row():
    predictor = RowPolicyPredictor(initial=2)
    predictor.note_closed(0, 0, row=7)

    class Same:
        rank, bank, row = 0, 0, 7

    class Other:
        rank, bank, row = 0, 0, 9

    predictor.observe(Same, RowState.EMPTY)   # closing destroyed a hit
    assert predictor._counter((0, 0)) == 1
    predictor.note_closed(0, 0, row=7)
    predictor.observe(Other, RowState.EMPTY)  # closing was free
    assert predictor._counter((0, 0)) == 2


def test_predictive_policy_end_to_end(small_config):
    cfg = replace(small_config, row_policy="predictive")
    system = MemorySystem(cfg, "Burst_TH")
    requests = make_request_stream(small_config, 250, seed=43)
    OpenLoopDriver(system, requests).run()
    predictor = system.schedulers[0].row_predictor
    assert predictor is not None
    assert predictor.predictions > 0
    assert 0.0 <= predictor.close_rate <= 1.0
    stats = system.stats
    assert (
        stats.completed_reads + stats.completed_writes + stats.forwarded_reads
        == 250
    )


def test_predictive_beats_cpa_on_streaming(config):
    """On a streaming workload the predictor keeps rows open (like
    open page) while static CPA forfeits every hit."""
    trace = make_benchmark_trace("swim", 800, seed=1)
    cycles = {}
    for policy in ("open_page", "close_page_autoprecharge", "predictive"):
        cfg = replace(config, row_policy=policy)
        cycles[policy] = OoOCore(
            MemorySystem(cfg, "Burst_TH"), trace
        ).run().mem_cycles
    assert cycles["predictive"] < cycles["close_page_autoprecharge"]
    assert cycles["predictive"] <= cycles["open_page"] * 1.1


# ------------------------------------------------------------- fairness

MIX = ("swim", "mcf", "gcc")


def _per_source(config, trace):
    system = MemorySystem(config, "Burst_TH")
    OoOCore(system, trace).run()
    return per_source_read_latency(system.stats)


def test_per_source_latency_and_fairness(config):
    """A CMP mix reports one tenant per core, and the one Jain metric
    (over speedups against each core run alone) is in [1/3, 1]."""
    traces = [
        make_benchmark_trace(name, 400, seed=1 + core)
        for core, name in enumerate(MIX)
    ]
    mix = make_mix_trace(MIX, 400, seed=1)
    assert mix == interleave_traces(traces)
    shared = _per_source(config, mix)
    assert sorted(shared) == [0, 1, 2]
    assert all(v > 0 for v in shared.values())
    solo = {}
    for core, trace in enumerate(traces):
        # The core's own stream, alone: same slice, same source id.
        alone = interleave_traces([[]] * core + [trace])
        solo.update(_per_source(config, alone))
    assert sorted(solo) == [0, 1, 2]
    assert 1.0 / 3.0 <= speedup_jain(solo, shared) <= 1.0


def test_fairness_requires_data():
    from repro.sim.stats import SimStats

    assert per_source_read_latency(SimStats()) == {}
    with pytest.raises(ConfigError):
        speedup_jain({}, {})
    with pytest.raises(ConfigError):
        speedup_jain({}, {0: 10.0})  # no solo baseline


def test_single_stream_trace_is_one_source(config):
    trace = make_benchmark_trace("gzip", 300, seed=1)
    assert len(_per_source(config, trace)) == 1


def test_trace_crossing_1gb_is_one_tenant(config, tmp_path):
    """Tenancy is ``source``, not the address: a loaded single-stream
    trace spanning several 1 GB slices is one tenant (the deleted
    address-slice view reported it as two cores)."""
    path = tmp_path / "wide.txt"
    records = [
        TraceRecord(3, AccessType.READ, (i % 2 << 30) + i * 64)
        for i in range(200)
    ]
    save_trace(records, path)
    system = MemorySystem(config, "Burst_TH")
    OoOCore(system, load_trace(path)).run()
    stats = system.stats
    assert {r.address >> 30 for r in load_trace(path)} == {0, 1}
    assert list(stats.per_source) == [0]
    assert stats.per_source[0].completed_reads == stats.completed_reads
    assert "read_latency_per_slice" not in stats.to_dict()
