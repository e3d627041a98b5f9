"""Tests for the §7 future-work extensions.

* dynamic threshold from the observed read/write ratio (Burst_DYN);
* the naive-issue ablation switch (Table 2 priority off).
"""

from repro.controller.registry import extension_names
from repro.controller.system import MemorySystem
from repro.core.dynamic import DynamicThresholdBurstScheduler
from repro.core.scheduler import BurstScheduler
from repro.cpu.core import OoOCore
from repro.sim.engine import OpenLoopDriver
from repro.workloads.spec2000 import make_benchmark_trace
from tests.conftest import make_request_stream


def test_burst_dyn_registered_as_extension():
    assert "Burst_DYN" in extension_names()


def test_dynamic_threshold_tracks_write_ratio(small_config):
    system = MemorySystem(small_config, "Burst_DYN")
    scheduler = system.schedulers[0]
    assert isinstance(scheduler, DynamicThresholdBurstScheduler)
    scheduler.epoch_accesses = 10
    requests = make_request_stream(
        small_config, 40, seed=1, write_frac=0.5, gap=2
    )
    OpenLoopDriver(system, requests).run()
    assert len(scheduler.threshold_history) > 1
    final = scheduler.threshold
    capacity = small_config.write_queue_size
    assert scheduler.floor <= final <= capacity - 4


def test_dynamic_threshold_directionality(small_config):
    """Write-heavy epochs produce a lower threshold than read-heavy."""

    def run(write_frac):
        system = MemorySystem(small_config, "Burst_DYN")
        scheduler = system.schedulers[0]
        scheduler.epoch_accesses = 20
        requests = make_request_stream(
            small_config, 100, seed=3, write_frac=write_frac, gap=2
        )
        OpenLoopDriver(system, requests).run()
        return scheduler.threshold

    assert run(0.6) < run(0.05)


def test_dynamic_completes_benchmarks(config):
    trace = make_benchmark_trace("gcc", 800, seed=2)
    system = MemorySystem(config, "Burst_DYN")
    OoOCore(system, trace).run()
    stats = system.stats
    assert (
        stats.completed_reads + stats.completed_writes + stats.forwarded_reads
        == 800
    )


def _burst_factory(**kwargs):
    def factory(config, channel, pool, stats):
        return BurstScheduler(
            config, channel, pool, stats,
            read_preemption=True, write_piggybacking=True, **kwargs,
        )

    return factory


def test_naive_issue_completes_but_slower_on_bursty_load(config):
    """Dropping the Table 2 priority must never break correctness and
    should not beat the priority table on streaming workloads."""
    trace = make_benchmark_trace("swim", 1200, seed=1)
    with_table = OoOCore(
        MemorySystem(config, _burst_factory()), trace
    ).run()
    naive = OoOCore(
        MemorySystem(config, _burst_factory(use_priority_table=False)),
        trace,
    ).run()
    assert naive.loads == with_table.loads
    assert naive.mem_cycles >= with_table.mem_cycles * 0.98


def test_dynamic_threshold_band_validation(small_config, config):
    """Bad floor/ceiling bands raise instead of being clamped.

    Before this guard an inverted band silently pinned the threshold
    (min ran before max in the clamp) and a ceiling beyond the write
    queue capacity was unreachable by the occupancy test.
    """
    import pytest

    from repro.errors import SchedulerError

    def build(cfg, **kwargs):
        system = MemorySystem(cfg, "BkInOrder")  # donor for channel/pool
        return DynamicThresholdBurstScheduler(
            cfg,
            system.channels[0],
            system.pool,
            system.stats,
            **kwargs,
        )

    # Defaults adapt to the queue size and stay valid on any config.
    scheduler = build(small_config)
    assert 0 <= scheduler.floor <= scheduler.ceiling
    assert scheduler.ceiling <= small_config.write_queue_size
    scheduler = build(config, floor=10, ceiling=60)
    assert (scheduler.floor, scheduler.ceiling) == (10, 60)

    with pytest.raises(SchedulerError):
        build(config, floor=40, ceiling=20)        # inverted band
    with pytest.raises(SchedulerError):
        build(config, floor=-1, ceiling=20)        # negative floor
    with pytest.raises(SchedulerError):
        build(config, ceiling=config.write_queue_size + 1)  # > capacity
    # A degenerate but consistent band is allowed.
    scheduler = build(config, floor=0, ceiling=0)
    assert (scheduler.floor, scheduler.ceiling) == (0, 0)
