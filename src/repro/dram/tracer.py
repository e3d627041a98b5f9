"""Command-level channel tracing and trace-file persistence.

:class:`ChannelTracer` subscribes to a :class:`~repro.dram.channel.
Channel`'s command-event stream and records every SDRAM transaction
with its cycle — the machine-readable equivalent of the paper's
Figure 1 timing diagrams.  It is used by the Figure 1 experiment's
rendering, by tests that assert on exact command schedules, by the
``repro-experiments record-trace`` subcommand and as a debugging aid::

    tracer = ChannelTracer(system.channels[0])
    ...run...
    print(tracer.render())

Tracers attach via :meth:`~repro.dram.channel.Channel.
add_command_listener`, as does the
:class:`~repro.dram.oracle.ProtocolOracle`, so any number of tracers
and oracles stack on one channel and attach/detach in any order
without disturbing each other.  The
:class:`~repro.core.validate.HazardMonitor` is not a listener: it
wraps each scheduler's ``issue_for``.  Tracing costs one listener call
per command; :meth:`detach` stops recording and :meth:`attach`
resumes it.

Recorded schedules round-trip through JSON-lines trace files
(:func:`save_trace` / :func:`load_trace`) so a run can be re-verified
offline with ``repro-experiments verify-trace``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import List, Sequence

from repro.dram.commands import TracedCommand
from repro.dram.timing import TimingParams
from repro.errors import TraceError


class ChannelTracer:
    """Records every command a channel issues."""

    def __init__(self, channel) -> None:
        self.channel = channel
        self.commands: List[TracedCommand] = []
        self._attached = False
        self.attach()

    # ------------------------------------------------------------------

    def _record(self, command: TracedCommand) -> None:
        self.commands.append(command)

    def attach(self) -> None:
        """(Re-)subscribe to the channel's command events; idempotent."""
        if not self._attached:
            self.channel.add_command_listener(self._record)
            self._attached = True

    def detach(self) -> None:
        """Stop recording; the already-captured commands remain."""
        if self._attached:
            self.channel.remove_command_listener(self._record)
            self._attached = False

    @property
    def attached(self) -> bool:
        """Whether the tracer is currently subscribed to its channel."""
        return self._attached

    def render(self) -> str:
        """The schedule as one line per command (Figure 1 style)."""
        return "\n".join(str(command) for command in self.commands)

    @property
    def last_data_end(self) -> int:
        """Completion cycle of the schedule's final data transfer."""
        ends = [
            c.data_end
            for c in self.commands
            if c.data_end is not None and c.kind not in ("REF", "REFPB")
        ]
        return max(ends) if ends else 0

    def __len__(self) -> int:
        return len(self.commands)


@dataclass(frozen=True)
class TraceFile:
    """A saved command trace: the device geometry plus the schedule."""

    timing: TimingParams
    ranks: int
    banks: int
    commands: List[TracedCommand]
    #: Rows per subarray, when the traced system modelled subarrays
    #: (SARP); None for traces from subarray-oblivious runs.
    subarray_rows: "int | None" = None
    subarrays: int = 1


def save_trace(
    path: str,
    commands: Sequence[TracedCommand],
    timing: TimingParams,
    ranks: int,
    banks: int,
    subarray_rows: "int | None" = None,
    subarrays: int = 1,
) -> None:
    """Write a command schedule as a JSON-lines trace file.

    The first line is a header carrying the full timing parameter set
    and channel geometry, so :func:`load_trace` reconstructs enough
    context for the protocol oracle to re-verify the schedule offline.
    """
    with open(path, "w", encoding="utf-8") as handle:
        header = {
            "type": "header",
            "timing": asdict(timing),
            "ranks": ranks,
            "banks": banks,
            "subarray_rows": subarray_rows,
            "subarrays": subarrays,
        }
        handle.write(json.dumps(header) + "\n")
        for command in commands:
            handle.write(json.dumps(asdict(command)) + "\n")


def load_trace(path: str) -> TraceFile:
    """Read a trace file written by :func:`save_trace`."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    if not lines:
        raise TraceError(f"{path}: empty trace file")
    try:
        header = json.loads(lines[0])
        if header.get("type") != "header":
            raise TraceError(f"{path}: missing trace header line")
        timing = TimingParams(**header["timing"])
        commands = [
            TracedCommand(**json.loads(line)) for line in lines[1:]
        ]
    except (KeyError, TypeError, ValueError) as error:
        raise TraceError(f"{path}: malformed trace file: {error}") from None
    return TraceFile(
        timing, header["ranks"], header["banks"], commands,
        subarray_rows=header.get("subarray_rows"),
        subarrays=header.get("subarrays", 1),
    )


__all__ = [
    "ChannelTracer",
    "TraceFile",
    "TracedCommand",
    "load_trace",
    "save_trace",
]
