"""Unit tests for trace records and the trace file format."""

import hashlib

import pytest

from repro.controller.access import AccessType
from repro.errors import TraceError
from repro.workloads.mixes import make_mix_trace
from repro.workloads.spec2000 import make_benchmark_trace
from repro.workloads.trace import (
    TraceRecord,
    iter_trace,
    load_trace,
    save_trace,
)


def test_record_validation():
    with pytest.raises(TraceError):
        TraceRecord(-1, AccessType.READ, 0)
    with pytest.raises(TraceError):
        TraceRecord(0, AccessType.READ, -5)
    with pytest.raises(TraceError, match="source"):
        TraceRecord(0, AccessType.READ, 0x40, source=-1)


@pytest.mark.parametrize("op", ["WRITE", "write", "W", 1, None])
def test_record_rejects_op_that_is_not_an_access_type(op):
    """The cores run every non-WRITE op as a load: a record typed
    ``"WRITE"`` used to become a read instead of failing."""
    with pytest.raises(TraceError, match="AccessType"):
        TraceRecord(0, op, 0x40)


def test_roundtrip(tmp_path):
    records = [
        TraceRecord(0, AccessType.READ, 0x1000),
        TraceRecord(17, AccessType.WRITE, 0xDEADBEEF & ~0x3F),
        TraceRecord(3, AccessType.READ, 0),
    ]
    path = tmp_path / "trace.txt"
    assert save_trace(records, path) == 3
    assert load_trace(path) == records


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("# header\n\n0 R 0x40\n  \n5 W 0x80\n")
    records = load_trace(path)
    assert len(records) == 2
    assert records[1].op is AccessType.WRITE


def test_lowercase_ops_accepted(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("0 r 0x40\n1 w 64\n")
    records = load_trace(path)
    assert records[0].op is AccessType.READ
    assert records[1].address == 64


def test_malformed_lines_raise(tmp_path):
    path = tmp_path / "trace.txt"
    for bad in ("0 R", "x R 0x40", "0 Q 0x40", "0 R zz", "0 R 0x40 x",
                "0 R 0x40 -1", "0 R 0x40 1 2"):
        path.write_text(bad + "\n")
        with pytest.raises(TraceError):
            load_trace(path)


def test_iter_trace_is_lazy(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("0 R 0x40\n1 W 0x80\n")
    iterator = iter_trace(path)
    assert next(iterator).address == 0x40
    assert next(iterator).op is AccessType.WRITE


def test_decimal_addresses(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("0 R 128\n")
    assert load_trace(path)[0].address == 128


def test_mix_trace_round_trips_with_sources(tmp_path):
    """A saved CMP mix keeps each record's core in the fourth column."""
    records = make_mix_trace(("swim", "mcf", "gcc"), 60, seed=1)
    assert {record.source for record in records} == {0, 1, 2}
    path = tmp_path / "mix.txt"
    save_trace(records, path)
    lines = path.read_text().splitlines()
    assert all(len(line.split()) == (3 if record.source == 0 else 4)
               for line, record in zip(lines, records))
    assert load_trace(path) == records


def test_single_stream_file_is_three_columns(tmp_path):
    """Source 0 writes no fourth column: every existing trace file (and
    this digest of one) stays byte-identical."""
    path = tmp_path / "swim.txt"
    save_trace(make_benchmark_trace("swim", 300, 1), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "eb7d816afb7269413f2fae8aed6b666cef28d19dd5b8ecb50f7fc1876ee9c3f8"
    )
    assert all(record.source == 0 for record in load_trace(path))
