"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration value is missing, inconsistent or out of range."""


class ProtocolError(ReproError):
    """An SDRAM command was issued in violation of the device protocol.

    This is raised by the DRAM substrate when a scheduler attempts an
    illegal command (e.g. a column access to a closed bank, or a command
    before its timing constraints are satisfied).  A correct scheduler
    never triggers it; the test suite uses it to assert protocol safety.
    """


class SchedulerError(ReproError):
    """An access-reordering mechanism reached an inconsistent state."""


class OracleViolationError(SchedulerError):
    """The independent protocol oracle rejected an SDRAM command.

    Raised by :class:`repro.dram.oracle.ProtocolOracle` in strict mode
    when a traced command violates a DDR2 timing or state-machine
    constraint that the primary device model failed to catch — i.e.
    the two implementations of the protocol disagree.  The message
    carries the violated rule and an excerpt of the recent schedule.
    """


class CheckpointMismatchError(ReproError):
    """A snapshot cannot be restored into the target simulation.

    Raised by the checkpoint subsystem when a saved snapshot disagrees
    with the run it is being loaded for — other code, a different
    :meth:`SystemConfig.fingerprint`, mechanism, driver kind, trace
    length, FSB wrapping, oracle or engine mode — or cannot be read at
    all (a file cut short or damaged).  The header is checked before
    anything is unpickled, so drift surfaces as this typed error
    instead of as a run resumed into the wrong state.
    """


class PoolError(ReproError):
    """The shared access pool was used incorrectly (overflow/underflow)."""


class TraceError(ReproError):
    """A workload trace is malformed or cannot be parsed."""


class MappingError(ReproError):
    """An address cannot be translated by the active mapping scheme."""


class ServiceError(ReproError):
    """A job-service request is malformed or cannot be satisfied.

    Raised by :mod:`repro.service` for bad submissions (unknown matrix
    or mechanism, malformed cell specs), unknown job ids, and client
    operations against a server that refused them.  The server maps it
    to an ``{"ok": false, "error": ...}`` reply instead of dying.
    """
