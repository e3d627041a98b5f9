"""Main-memory miss trace records and their file format.

A trace is a sequence of :class:`TraceRecord` items, each carrying the
number of non-memory instructions executed since the previous record
(``gap``), the operation (READ linefill or WRITE writeback) and the
physical byte address, plus the issuing tenant (``source``).  The
text format is one record per line::

    <gap> <R|W> <hex address> [<source>]

which keeps traces diffable and trivially producible by external
tools; the source column is written only when it is not 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Union

from repro.controller.access import AccessType
from repro.errors import TraceError


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
        if self.gap < 0:
            raise TraceError(f"negative instruction gap {self.gap}")
        if self.address < 0:
            raise TraceError(f"negative address {self.address:#x}")
        if self.source < 0:
            raise TraceError(f"negative source {self.source}")


_OP_TO_CHAR = {AccessType.READ: "R", AccessType.WRITE: "W"}
_CHAR_TO_OP = {"R": AccessType.READ, "W": AccessType.WRITE}


def save_trace(records: Iterable[TraceRecord], path: Union[str, Path]) -> int:
    """Write records to ``path``; returns the record count."""
    count = 0
    with open(path, "w") as handle:
        for record in records:
            source = f" {record.source}" if record.source else ""
            handle.write(
                f"{record.gap} {_OP_TO_CHAR[record.op]} "
                f"{record.address:#x}{source}\n"
            )
            count += 1
    return count


def _parse_line(line: str, lineno: int) -> TraceRecord:
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
    return TraceRecord(gap, op, address, source)


def load_trace(path: Union[str, Path]) -> List[TraceRecord]:
    """Read a whole trace file into memory."""
    return list(iter_trace(path))


def iter_trace(path: Union[str, Path]) -> Iterator[TraceRecord]:
    """Stream records from a trace file (for very large traces)."""
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            yield _parse_line(line, lineno)


__all__ = ["TraceRecord", "iter_trace", "load_trace", "save_trace"]
