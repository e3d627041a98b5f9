"""Unit tests for trace records and the trace file format."""

import pytest

from repro.controller.access import AccessType
from repro.errors import TraceError
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
    for bad in ("0 R", "x R 0x40", "0 Q 0x40", "0 R zz"):
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
