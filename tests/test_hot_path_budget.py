"""Hot-path conventions: a call budget, a trace memory budget, and
fields that stay in sync.

Per-cycle, per-command and per-access code reads plain fields; a value
is written where it changes, and properties are for cold API (DESIGN.md
§11).  The budget below pins that: it counts Python-level function
calls (``sys.setprofile`` "call" events) per simulated access.  The
count is deterministic — it does not depend on host speed or Python
version — so a regression that puts a property back on the hot path,
or checks a device gate twice per command, fails here instead of hiding
in timing noise.  The memory budget does the same for the miss trace
every closed-loop cell holds for its whole run: its retained bytes per
record under ``tracemalloc``, which a trace of record objects exceeds
fourfold.

The second half checks that each field replacing a property or helper
holds exactly what that property computed, across every place the
underlying state changes: construction, the updating operation, and
checkpoint restore.
"""

from __future__ import annotations

import pickle
import sys
import tracemalloc
from dataclasses import asdict, replace

import pytest

from repro.controller.access import AccessType, MemoryAccess
from repro.controller.system import MemorySystem
from repro.cpu.core import OoOCore
from repro.dram.channel import Channel
from repro.dram.refresh import (
    DARPRefresher,
    PerBankRefresher,
    SARPRefresher,
)
from repro.dram.timing import DDR2_800, DDR5_4800
from repro.experiments.generations import generation_config
from repro.mapping.base import DecodedAddress
from repro.sim.config import baseline_config
from repro.timebase import NEVER
from repro.workloads.spec2000 import make_benchmark_trace

from tests.test_refresh_pb import _QuietScheduler, _channel

ACCESSES = 500


def _calls_per_access(bench, mechanism, config) -> float:
    trace = make_benchmark_trace(bench, ACCESSES, 1)
    core = OoOCore(MemorySystem(config, mechanism), trace)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        core.run()
    finally:
        sys.setprofile(previous)
    return calls / ACCESSES


@pytest.mark.parametrize(
    "bench, mechanism, config, budget",
    [
        # Counts with one latency record per read in the aggregate and
        # one in its source's histogram, the Figure 5 line-8 burst pick
        # inlined, no inter-burst reorder call at burst boundaries, and
        # one run loop for cores and open-loop streams that reads the
        # driver's next arrival as a field, and the core staging trace
        # rows inside its fetch loop: 90.0 (92.3 with a staging call
        # per fetch iteration, 93.9 with a next-arrival call per wait
        # and a per-wait stall-charge call,
        # 92.6 with the reorder call, 94.6 with a per-pick selection
        # hook call too, 96.6 with the deleted per-slice and per-source
        # LatencyStat records too).
        ("swim", "Burst_TH", baseline_config(), 93),
        # 89.9 (91.8, 93.8).
        ("mcf", "BkInOrder", baseline_config(), 92),
        # 90.6 (93.6, 95.2).
        ("gcc", "Intel", baseline_config(), 94),
        # 115.4 (119.5 with the staging call, 119.9 with the reorder
        # call, 121.9 with the hook call, 123.9 with the records).
        ("swim", "Burst_BPW", generation_config(DDR5_4800), 120),
    ],
    ids=[
        "swim-Burst_TH-DDR2",
        "mcf-BkInOrder-DDR2",
        "gcc-Intel-DDR2",
        "swim-Burst_BPW-DDR5",
    ],
)
def test_python_calls_per_access_within_budget(
    bench, mechanism, config, budget, monkeypatch
):
    # The budget is for the default engine with no observers attached.
    monkeypatch.setenv("REPRO_FASTFWD", "1")
    monkeypatch.delenv("REPRO_ORACLE", raising=False)
    per_access = _calls_per_access(bench, mechanism, config)
    assert per_access <= budget, (
        f"{bench}/{mechanism}: {per_access:.1f} Python calls per "
        f"access, budget {budget}"
    )


#: Retained bytes per generated trace record (17.4 packed; the record
#: objects of a ``list`` retained 144).
BYTES_PER_RECORD = 32


def test_trace_memory_per_record_within_budget():
    """The memory budget: a trace keeps columns, not record objects."""
    records = 100_000
    tracemalloc.start()
    try:
        trace = make_benchmark_trace("swim", records, 1)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) == records
    per_record = retained / records
    assert per_record <= BYTES_PER_RECORD, (
        f"{per_record:.1f} bytes per trace record, budget "
        f"{BYTES_PER_RECORD}"
    )


# ----------------------------------------------------------------------
# Fields stay in sync with what they replaced
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", list(AccessType))
def test_access_direction_fields_survive_round_trip(kind):
    access = MemoryAccess(kind, 0x40, DecodedAddress(0, 0, 1, 2, 3), 7)
    restored = MemoryAccess.from_state(access.to_state())
    for record in (access, restored):
        assert record.is_read is (record.type is AccessType.READ)
        assert record.is_write is (record.type is AccessType.WRITE)
    assert restored.type is kind


def _old_idle_until(refresher) -> int:
    """The deleted ``idle_until`` properties, recomputed independently."""
    if not refresher.enabled:
        return NEVER
    min_due = min(min(row) for row in refresher._due)
    if isinstance(refresher, DARPRefresher):
        return min_due - refresher.PULL_IN_MAX * refresher.interval
    return min_due


@pytest.mark.parametrize(
    "factory",
    [
        lambda: PerBankRefresher(_channel()),
        lambda: DARPRefresher(_channel()),
        lambda: SARPRefresher(_channel(subarray_rows=4), 2),
    ],
    ids=["REFpb", "DARP", "SARP"],
)
def test_refresher_idle_until_tracks_due_ledger(factory):
    """Construction, a retire and a restore; DARP's pull-in retire is
    pinned by ``test_darp_pull_in_advances_idle_horizon``."""
    refresher = factory()
    refresher.bind_scheduler(_QuietScheduler())
    assert refresher.idle_until == _old_idle_until(refresher)
    refresher._retire(0, 0)
    assert refresher.idle_until == _old_idle_until(refresher)
    state = refresher.state_dict()
    fresh = factory()
    fresh.load_state_dict(state)
    assert fresh.idle_until == refresher.idle_until
    assert fresh.idle_until == _old_idle_until(fresh)


def test_refresher_idle_until_never_when_disabled():
    timing = replace(DDR2_800, tREFI=None)
    channel = Channel(timing, 0, ranks=1, banks=2)
    for refresher in (PerBankRefresher(channel), DARPRefresher(channel)):
        assert refresher.idle_until == NEVER
        refresher.load_state_dict(refresher.state_dict())
        assert refresher.idle_until == NEVER


def test_cached_timing_values_do_not_leak_across_replace():
    assert DDR2_800.data_cycles == DDR2_800.burst_length // 2
    short = replace(DDR2_800, burst_length=4)
    assert short.data_cycles == 2
    assert short.read_to_precharge == max(short.tRTP, 2)
    assert short.write_to_precharge == short.tCWL + 2 + short.tWR
    assert DDR2_800.data_cycles == 4
    # The cache lives outside the fields: equality, hashing and the
    # fingerprinted dict form are those of a fresh instance.
    fresh = replace(DDR2_800)
    assert fresh == DDR2_800 and hash(fresh) == hash(DDR2_800)
    assert asdict(fresh) == asdict(DDR2_800)
    assert "data_cycles" not in asdict(DDR2_800)
    clone = pickle.loads(pickle.dumps(short))
    assert clone == short
    assert clone.data_cycles == 2
    assert clone.tRC == short.tRAS + short.tRP


def test_channel_last_command_cycle_restored():
    channel = Channel(DDR2_800, 0, ranks=1, banks=2)
    assert channel.last_command_cycle == -1
    channel.issue_activate(5, 0, 0, 3)
    assert channel.last_command_cycle == 5
    fresh = Channel(DDR2_800, 0, ranks=1, banks=2)
    fresh.load_state_dict(channel.state_dict())
    assert fresh.last_command_cycle == 5
    assert not fresh.command_bus_free(5)
    assert fresh.command_bus_free(6)
