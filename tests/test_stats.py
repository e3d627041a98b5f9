"""Unit tests for the statistics primitives."""

from dataclasses import fields

import pytest

from repro.dram.channel import RowState
from repro.sim.stats import Histogram, LatencyStat, SimStats, SourceStats


def test_latency_stat_accumulates():
    stat = LatencyStat()
    assert stat.mean == 0.0
    for v in (10, 20, 30):
        stat.add(v)
    assert stat.count == 3
    assert stat.mean == 20
    assert stat.min == 10
    assert stat.max == 30


def test_histogram_fractions():
    h = Histogram()
    h.add(0, weight=3)
    h.add(2)
    assert h.total == 4
    assert h.fraction(0) == 0.75
    assert h.fraction(5) == 0.0
    assert h.fraction_at_least(1) == 0.25
    assert h.fraction_at_least(0) == 1.0


def test_histogram_mean_and_series():
    h = Histogram()
    h.add(1, 2)
    h.add(3, 2)
    assert h.mean() == 2.0
    assert h.series() == [(1, 0.5), (3, 0.5)]


def test_empty_histogram():
    h = Histogram()
    assert h.mean() == 0.0
    assert h.fraction_at_least(0) == 0.0
    assert list(h.series()) == []


def test_simstats_row_rates():
    stats = SimStats()
    stats.row_states[RowState.HIT] = 3
    stats.row_states[RowState.CONFLICT] = 1
    rates = stats.row_state_rates()
    assert rates["hit"] == 0.75
    assert rates["conflict"] == 0.25
    assert rates["empty"] == 0.0
    assert stats.row_hit_rate == 0.75


def test_simstats_empty_rates():
    rates = SimStats().row_state_rates()
    assert rates == {"hit": 0.0, "conflict": 0.0, "empty": 0.0}


def test_bus_utilization_and_saturation():
    stats = SimStats()
    stats.cycles = 100
    stats.data_bus_cycles = 40
    stats.cmd_bus_cycles = 10
    stats.write_queue_full_cycles = 9
    assert stats.data_bus_utilization == 0.4
    assert stats.address_bus_utilization == 0.1
    assert stats.write_queue_saturation == 0.09


def test_effective_bandwidth_matches_paper_example():
    """§5.2: 42% utilisation of PC2-6400 gives ~2.7 GB/s effective."""
    stats = SimStats()
    stats.cycles = 100
    stats.data_bus_cycles = 42
    assert stats.effective_bandwidth_gbps() == pytest.approx(2.688)


def test_latency_stat_round_trip():
    stat = LatencyStat()
    for v in (7, 3, 11):
        stat.add(v)
    clone = LatencyStat.from_dict(stat.to_dict())
    assert clone.count == 3
    assert clone.total == 21
    assert clone.min == 3
    assert clone.max == 11
    assert clone.mean == stat.mean


def test_latency_stat_empty_round_trip_keeps_none_bounds():
    """Regression: empty stats must serialize min/max as None, not 0 —
    a zero would poison the min of the first sample added after a
    round-trip."""
    clone = LatencyStat.from_dict(LatencyStat().to_dict())
    assert clone.count == 0
    assert clone.min is None
    assert clone.max is None
    assert clone.mean == 0.0
    clone.add(42)
    assert clone.min == 42  # None bounds did not clamp the first sample


def test_histogram_merge_and_round_trip():
    a = Histogram()
    a.add(1, 2)
    a.add(1, 3)
    a.add(4)
    assert a.counts == {1: 5, 4: 1}
    clone = Histogram.from_dict(a.to_dict())
    assert dict(clone.counts) == {1: 5, 4: 1}
    clone.add(9)  # defaultdict behaviour survives the round-trip
    assert clone.counts[9] == 1


def _populated_stats():
    stats = SimStats()
    stats.cycles = 1000
    stats.completed_reads = 70
    stats.completed_writes = 30
    stats.forwarded_reads = 2
    stats.preemptions = 3
    stats.piggybacked_writes = 4
    stats.write_queue_full_cycles = 5
    stats.pool_full_cycles = 6
    stats.cmd_bus_cycles = 100
    stats.data_bus_cycles = 400
    stats.refreshes = 7
    stats.cpu_stall_cycles = 8
    stats.instructions = 9000
    stats.read_latency.add(12)
    stats.read_latency.add(30)
    stats.write_latency.add(20)
    stats.row_states[RowState.HIT] = 50
    stats.row_states[RowState.CONFLICT] = 30
    stats.row_states[RowState.EMPTY] = 20
    stats.outstanding_reads.add(3, 500)
    stats.outstanding_writes.add(1, 250)
    stats.burst_sizes.add(4, 6)
    stats.for_source(2).read_latencies.add(17)
    return stats


def test_simstats_round_trip_lossless():
    stats = _populated_stats()
    clone = SimStats.from_dict(stats.to_dict())
    assert clone.to_dict() == stats.to_dict()
    assert clone.report() == stats.report()
    assert clone.row_states == stats.row_states
    assert clone.per_source[2].read_latency.min == 17
    assert clone.burst_sizes.counts == stats.burst_sizes.counts


def test_simstats_round_trip_survives_json():
    import json

    stats = _populated_stats()
    wire = json.loads(json.dumps(stats.to_dict()))
    assert SimStats.from_dict(wire).to_dict() == stats.to_dict()


def test_simstats_empty_round_trip():
    clone = SimStats.from_dict(SimStats().to_dict())
    assert clone.report() == SimStats().report()
    assert clone.read_latency.min is None


def test_simstats_to_dict_covers_every_field():
    """A new SimStats field cannot silently skip serialization."""
    assert set(SimStats().to_dict()) == {f.name for f in fields(SimStats)}


def test_report_contains_headline_keys():
    report = SimStats().report()
    for key in (
        "read_latency",
        "write_latency",
        "row_hit",
        "data_bus_util",
        "write_queue_saturation",
    ):
        assert key in report


def test_fraction_at_least_zero_total_guard_after_empty_merges():
    """An empty histogram keeps the zero-total guard.

    Regression for the report path: a run with zero completed
    accesses leaves its histograms empty, and the saturation /
    outstanding-access fractions must come out 0.0, not raise
    ZeroDivisionError.
    """
    empty = Histogram()
    assert empty.total == 0
    assert empty.fraction_at_least(0) == 0.0
    assert empty.fraction_at_least(17) == 0.0
    assert empty.fraction(0) == 0.0


def test_report_on_merged_empty_stats_is_all_finite():
    """SimStats.report() tolerates an empty run end to end."""
    report = SimStats().report()
    for key, value in report.items():
        assert value == value, f"{key} is NaN"
        assert value == 0.0, key


@pytest.mark.parametrize(
    "samples", [(), (42,), (30, 12, 30, 7, 250)], ids=["empty", "one", "five"]
)
def test_source_read_latency_view_equals_latency_stat(samples):
    """Each read is recorded once, in the per-source histogram; the
    mean/min/max view derived from it equals a LatencyStat fed the
    same samples, empty bounds (None) included."""
    source = SourceStats()
    reference = LatencyStat()
    for value in samples:
        source.read_latencies.add(value)
        reference.add(value)
    view = source.read_latency
    assert view.to_dict() == reference.to_dict()
    assert view.mean == reference.mean
    restored = SourceStats.from_dict(source.to_dict())
    assert restored.read_latency.to_dict() == reference.to_dict()
    assert "read_latency" not in source.to_dict()
