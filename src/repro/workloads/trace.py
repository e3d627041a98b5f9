"""Main-memory miss traces: records, the packed trace and the file format.

A trace is a sequence of :class:`TraceRecord` items, each carrying the
number of non-memory instructions executed since the previous record
(``gap``), the operation (READ linefill or WRITE writeback) and the
physical byte address, plus the issuing tenant (``source``).

Every producer (the synthetic generator, the SPEC profiles, CMP mixes
and :func:`load_trace`) returns a :class:`Trace`, which stores the
records as integer columns rather than as record objects: 17 bytes a
record instead of about 144.  Iterating or indexing one yields
:class:`TraceRecord` views; the CPU model reads plain
``(gap, op, address, source)`` rows through :func:`trace_rows`, which
also adapts any other iterable of records (a list, or a streamed
:func:`iter_trace`).

The text format is one record per line::

    <gap> <R|W> <hex address> [<source>]

which keeps traces diffable and trivially producible by external
tools; the source column is written only when it is not 0.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import starmap
from pathlib import Path
from typing import Iterable, Iterator, Optional, Tuple, Union

from repro.controller.access import AccessType
from repro.errors import TraceError

#: A record as the CPU model reads it: ``(gap, op, address, source)``.
Row = Tuple[int, AccessType, int, int]

#: The op column's codes: a packed record's op is ``OPS[code]``.
OPS = (AccessType.READ, AccessType.WRITE)


def _check(gap: int, address: int, source: int) -> None:
    """The numeric rules of a record (a packed trace checks its minima)."""
    if gap < 0:
        raise TraceError(f"negative instruction gap {gap}")
    if address < 0:
        raise TraceError(f"negative address {address:#x}")
    if source < 0:
        raise TraceError(f"negative source {source}")


@dataclass(frozen=True)
class TraceRecord:
    """One main-memory access with its instruction-gap context."""

    gap: int
    op: AccessType
    address: int
    #: Tenant id (``MemoryAccess.source``): a CMP mix's core, else 0.
    source: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.op, AccessType):
            raise TraceError(f"op must be an AccessType, got {self.op!r}")
        _check(self.gap, self.address, self.source)


class Trace:
    """An immutable trace packed into integer columns.

    ``gaps`` and ``addresses`` are ``array('q')`` columns and ``ops``
    holds one :data:`OPS` code byte per record.  A sources column is
    kept only when some record has a non-zero source.  ``len``,
    iteration and ``int`` indexing yield :class:`TraceRecord` values
    (slicing yields a :class:`Trace`); two traces, or a trace and a
    list or tuple of records, compare by value.  Producers build one
    from columns directly, or from rows with :meth:`from_rows`.
    """

    __slots__ = ("_gaps", "_ops", "_addresses", "_sources")

    def __init__(
        self,
        gaps: array,
        ops: Union[bytes, bytearray],
        addresses: array,
        sources: Optional[array] = None,
    ) -> None:
        """A trace over ready-made columns (taken, not copied).

        The record rules run here, once per record, on the columns.
        """
        if not len(gaps) == len(ops) == len(addresses):
            raise TraceError("trace columns differ in length")
        if sources is not None:
            if len(sources) != len(gaps):
                raise TraceError("trace columns differ in length")
            if not any(sources):
                sources = None
        if gaps:
            _check(min(gaps), min(addresses), min(sources) if sources else 0)
            if max(ops) >= len(OPS):
                raise TraceError(f"op code {max(ops)} is not an AccessType")
        self._gaps = gaps
        self._ops = ops
        self._addresses = addresses
        self._sources = sources

    @classmethod
    def from_rows(cls, rows: Iterable[Row]) -> "Trace":
        """Pack ``(gap, op, address, source)`` rows (of records:
        ``Trace.from_rows(trace_rows(records))``)."""
        return cls(*_columns(rows))

    def columns(self) -> tuple:
        """The packed ``(gaps, ops, addresses, sources)`` columns;
        ``sources`` is ``None`` when every record's source is 0."""
        return self._gaps, self._ops, self._addresses, self._sources

    def rows(self) -> Iterator[Row]:
        """``(gap, op, address, source)`` per record; builds no record.

        Built of builtin iterators only (``itertools`` ones stop
        pickling in Python 3.14), so a snapshot can pickle it with its
        position: without a sources column, ``0 * gap`` is the zero.
        """
        sources = self._sources
        if sources is None:
            sources = map((0).__mul__, self._gaps)
        return zip(
            self._gaps, map(OPS.__getitem__, self._ops), self._addresses,
            sources,
        )

    def __len__(self) -> int:
        return len(self._gaps)

    def __iter__(self) -> Iterator[TraceRecord]:
        return starmap(TraceRecord, self.rows())

    def __getitem__(self, index):
        sources = self._sources
        if isinstance(index, slice):
            return Trace(
                self._gaps[index], self._ops[index], self._addresses[index],
                None if sources is None else sources[index],
            )
        return TraceRecord(
            self._gaps[index], OPS[self._ops[index]], self._addresses[index],
            0 if sources is None else sources[index],
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, Trace):
            return (
                self._gaps == other._gaps
                and self._ops == other._ops
                and self._addresses == other._addresses
                and self._sources == other._sources
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented


def trace_rows(trace: Iterable[TraceRecord]) -> Iterator[Row]:
    """The rows of a :class:`Trace`, or of any iterable of records
    (consumed lazily, so a streamed :func:`iter_trace` stays streamed)."""
    if isinstance(trace, Trace):
        return trace.rows()
    return ((r.gap, r.op, r.address, r.source) for r in trace)


def _columns(rows: Iterable[Row]) -> tuple:
    """Pack rows into ``(gaps, ops, addresses, sources)`` columns."""
    gaps, ops, addresses, sources = array("q"), bytearray(), array("q"), array("q")
    for gap, op, address, source in rows:
        try:
            gaps.append(gap)
            ops.append(OPS.index(op))
            addresses.append(address)
            sources.append(source)
        except OverflowError:
            raise TraceError(
                f"record {len(sources)}: a field exceeds 64 bits"
            ) from None
        except ValueError:
            raise TraceError(
                f"record {len(sources)}: op must be an AccessType, got {op!r}"
            ) from None
    return gaps, ops, addresses, sources


_OP_TO_CHAR = {AccessType.READ: "R", AccessType.WRITE: "W"}
_CHAR_TO_OP = {"R": AccessType.READ, "W": AccessType.WRITE}


def save_trace(records: Iterable[TraceRecord], path: Union[str, Path]) -> int:
    """Write records to ``path``; returns the record count."""
    count = 0
    with open(path, "w") as handle:
        for gap, op, address, source in trace_rows(records):
            tail = f" {source}" if source else ""
            handle.write(f"{gap} {_OP_TO_CHAR[op]} {address:#x}{tail}\n")
            count += 1
    return count


def _parse_line(line: str, lineno: int) -> Row:
    parts = line.split()
    if len(parts) not in (3, 4):
        raise TraceError(
            f"line {lineno}: expected '<gap> <R|W> <address> [<source>]', "
            f"got {line!r}"
        )
    gap_text, op_text, addr_text = parts[:3]
    try:
        gap = int(gap_text)
        address = int(addr_text, 0)
        source = int(parts[3]) if len(parts) == 4 else 0
    except ValueError as exc:
        raise TraceError(f"line {lineno}: {exc}") from None
    op = _CHAR_TO_OP.get(op_text.upper())
    if op is None:
        raise TraceError(f"line {lineno}: unknown op {op_text!r}")
    return gap, op, address, source


def _iter_rows(path: Union[str, Path]) -> Iterator[Row]:
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            yield _parse_line(line, lineno)


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a whole trace file into one packed :class:`Trace`."""
    return Trace.from_rows(_iter_rows(path))


def iter_trace(path: Union[str, Path]) -> Iterator[TraceRecord]:
    """Stream records from a trace file (for very large traces)."""
    return starmap(TraceRecord, _iter_rows(path))


__all__ = [
    "OPS",
    "Row",
    "Trace",
    "TraceRecord",
    "iter_trace",
    "load_trace",
    "save_trace",
    "trace_rows",
]
