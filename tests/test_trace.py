"""Unit tests for trace records, the packed trace and the trace file
format."""

import hashlib
from array import array
from dataclasses import replace

import pytest

from repro.controller.access import AccessType
from repro.errors import ConfigError, TraceError
from repro.sim.config import baseline_config
from repro.workloads import make_requests, make_trace
from repro.workloads.fleet import make_fleet_requests, tenant_requests
from repro.workloads.microbench import MICROBENCHMARKS
from repro.workloads.mixes import make_mix_trace
from repro.workloads.spec2000 import BENCHMARKS, make_benchmark_trace
from repro.workloads.trace import (
    Trace,
    TraceRecord,
    iter_trace,
    load_trace,
    save_trace,
    trace_rows,
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


# ----------------------------------------------------------------------
# The packed trace
# ----------------------------------------------------------------------


def _records(trace):
    """Every record of ``trace`` by index, independent of iteration."""
    return [trace[index] for index in range(len(trace))]


PACKED = [(name, make_benchmark_trace(name, 400, 2)) for name in BENCHMARKS]
PACKED.append(("mix", make_mix_trace(("swim", "mcf", "gcc"), 300, seed=2)))


@pytest.mark.parametrize("name, trace", PACKED, ids=[n for n, _ in PACKED])
def test_packed_trace_views_agree(name, trace):
    """``len``, iteration, indexing, rows and equality are one trace."""
    records = _records(trace)
    assert isinstance(trace, Trace)
    assert len(trace) == len(records) == (900 if name == "mix" else 400)
    assert list(trace) == records
    assert all(isinstance(record, TraceRecord) for record in records)
    assert trace[-1] == records[-1]
    with pytest.raises(IndexError):
        trace[len(trace)]
    assert list(trace.rows()) == list(trace_rows(records))
    assert trace == records and records == trace
    assert trace == Trace.from_rows(trace_rows(records))
    assert trace[:10] == records[:10]
    assert trace != records[:-1]
    assert {record.source for record in trace} == (
        {0, 1, 2} if name == "mix" else {0}
    )


@pytest.mark.parametrize("name, trace", PACKED, ids=[n for n, _ in PACKED])
def test_packed_trace_file_round_trip(name, trace, tmp_path):
    """A saved packed trace writes the same file as its record list and
    loads back equal."""
    packed, listed = tmp_path / "packed.txt", tmp_path / "listed.txt"
    assert save_trace(trace, packed) == save_trace(_records(trace), listed)
    assert packed.read_bytes() == listed.read_bytes()
    assert load_trace(packed) == trace


def test_packed_traces_equal_the_record_lists_they_replaced(tmp_path):
    """The files of every SPEC profile and a 3-core mix hash to the
    digest the record-list generator produced."""
    digest = hashlib.sha256()
    for name, trace in PACKED:
        path = tmp_path / name
        save_trace(trace, path)
        digest.update(path.read_bytes())
    assert digest.hexdigest() == (
        "256d00a32519f2db181d8dfd5737540ab5b3faf4aad7192ab6753605dd883197"
    )


def test_make_trace_names_every_workload():
    """A SPEC profile, a ``+``-joined mix and a microbenchmark name give
    the traces their own builders give, and a fleet scenario or a
    ``<tenant>@<source>`` the open-loop requests theirs give; any other
    name is an error."""
    for name, trace in PACKED:
        if name == "mix":
            assert make_trace("swim+mcf+gcc", 300, 2) == trace
        else:
            assert make_trace(name, 400, 2) == trace
    for name, builder in MICROBENCHMARKS.items():
        assert make_trace(name, 300, 2) == builder(300)
    for name in ("doom3", "swim,mcf", "swim+doom3", "stride", "",
                 "hog_vs_reader", "reader@1"):
        with pytest.raises(ConfigError):
            make_trace(name, 10, 1)
    pair = replace(baseline_config(), sources=2)
    assert make_requests("hog_vs_reader", 50, pair, 3) == (
        make_fleet_requests("hog_vs_reader", 50, pair, 3)
    )
    assert make_requests("reader@1", 50, pair, 3) == (
        tenant_requests("reader", 1, 50, pair, 3)
    )
    for name in ("swim", "stream", "reader", "reader@", "reader@x",
                 "reader@2", "doom3@0", "symmetric4", ""):
        with pytest.raises(ConfigError):
            make_requests(name, 10, pair, 1)


def test_trace_without_sources_keeps_no_source_column():
    assert make_benchmark_trace("swim", 50, 1)._sources is None
    assert make_mix_trace(("swim", "mcf"), 50)._sources is not None
    zeros = [TraceRecord(1, AccessType.READ, 64, source=0)] * 3
    assert Trace.from_rows(trace_rows(zeros))._sources is None


def test_packed_trace_applies_the_record_rules(tmp_path):
    path = tmp_path / "trace.txt"
    for bad, message in (("0 R 0x40\n-1 W 0x80\n", "gap -1"),
                         ("0 R 0x40\n1 W 0x80 -3\n", "source -3"),
                         ("0 R 0x40 99999999999999999999\n", "64 bits")):
        path.write_text(bad)
        with pytest.raises(TraceError, match=message):
            load_trace(path)
    with pytest.raises(TraceError, match="AccessType"):
        Trace(array("q", [0]), bytes([2]), array("q", [64]))
    with pytest.raises(TraceError, match="AccessType"):
        Trace.from_rows([(0, "W", 64, 0)])
    with pytest.raises(TraceError, match="length"):
        Trace(array("q", [0, 1]), bytes([0]), array("q", [64]))


def test_core_streams_a_record_iterator(tmp_path):
    """A streamed ``iter_trace`` feeds the core record by record, and
    runs exactly like the packed trace of the same file."""
    from repro.controller.system import MemorySystem
    from repro.cpu.core import OoOCore
    from repro.sim.config import baseline_config

    path = tmp_path / "swim.txt"
    save_trace(make_benchmark_trace("swim", 300, 1), path)
    pulled = []

    def counted():
        for record in iter_trace(path):
            pulled.append(record)
            yield record

    results = []
    for trace in (load_trace(path), counted()):
        core = OoOCore(MemorySystem(baseline_config(), "Burst_TH"), trace)
        for _ in range(20):
            core.step()
        results.append(core.run())
    assert len(pulled) == 300
    assert results[0] == results[1]
