"""Unit tests for the synthetic miss-stream generator."""

import pytest

from repro.controller.access import AccessType
from repro.errors import ConfigError
from repro.workloads.synthetic import (
    LINE_BYTES,
    WorkloadSpec,
    generate_trace,
)


def _spec(**overrides):
    base = dict(
        name="unit",
        mean_gap=50.0,
        write_frac=0.3,
        streams=4,
        stream_frac=0.8,
        footprint_mb=16,
        eviction_lag=64,
        burstiness=0.9,
        alignment_lines=256,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


def test_determinism():
    a = generate_trace(_spec(), 500, seed=7)
    b = generate_trace(_spec(), 500, seed=7)
    assert a == b


def test_seed_changes_trace():
    a = generate_trace(_spec(), 500, seed=1)
    b = generate_trace(_spec(), 500, seed=2)
    assert a != b


def test_requested_length():
    assert len(generate_trace(_spec(), 321)) == 321


def test_addresses_line_aligned_and_in_footprint():
    spec = _spec()
    limit = spec.footprint_mb * (1 << 20)
    for record in generate_trace(spec, 1000):
        assert record.address % LINE_BYTES == 0
        assert 0 <= record.address < limit


def test_write_fraction_approximate():
    trace = generate_trace(_spec(write_frac=0.4, eviction_lag=16), 8000)
    writes = sum(r.op is AccessType.WRITE for r in trace)
    assert 0.3 < writes / len(trace) < 0.5


def test_mean_gap_approximate():
    trace = generate_trace(_spec(mean_gap=40.0), 20000)
    mean = sum(r.gap for r in trace) / len(trace)
    assert 30 < mean < 50


def test_writes_echo_earlier_reads():
    """Eviction model: every write targets a previously read line."""
    trace = generate_trace(_spec(eviction_lag=32), 3000)
    seen = set()
    for record in trace:
        if record.op is AccessType.WRITE:
            assert record.address in seen
        else:
            seen.add(record.address)


def test_stream_bases_are_aligned():
    spec = _spec(stream_frac=1.0, streams=2, alignment_lines=512)
    trace = generate_trace(spec, 4)
    # The first access of each stream sits within stride of an
    # aligned base.
    for record in trace[:2]:
        line = record.address // LINE_BYTES
        assert (line - spec.stride_lines) % 1 == 0


def test_pure_random_when_stream_frac_zero():
    spec = _spec(stream_frac=0.0, streams=0)
    trace = generate_trace(spec, 500)
    rows = {r.address >> 13 for r in trace}
    assert len(rows) > 50  # spread widely


def test_spec_validation():
    with pytest.raises(ConfigError):
        _spec(mean_gap=0)
    with pytest.raises(ConfigError):
        _spec(write_frac=1.0)
    with pytest.raises(ConfigError):
        _spec(stream_frac=1.5)
    with pytest.raises(ConfigError):
        _spec(burstiness=1.0)
    with pytest.raises(ConfigError):
        _spec(stride_lines=0)
    with pytest.raises(ConfigError):
        _spec(footprint_mb=0)
    with pytest.raises(ConfigError):
        _spec(alignment_lines=0)
    with pytest.raises(ConfigError):
        _spec(streams=-1)


def test_burstiness_creates_clusters():
    bursty = generate_trace(_spec(burstiness=0.95), 5000, seed=3)
    uniform = generate_trace(_spec(burstiness=0.0), 5000, seed=3)
    small_gaps_bursty = sum(r.gap <= 2 for r in bursty) / len(bursty)
    small_gaps_uniform = sum(r.gap <= 2 for r in uniform) / len(uniform)
    assert small_gaps_bursty > small_gaps_uniform + 0.3
