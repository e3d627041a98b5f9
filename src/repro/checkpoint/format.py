"""Snapshot file format: a JSON header line, then the pickled driver.

Layout::

    {"kind": "header", "code_version": ..., "fingerprint": ..., ...}
    <the driver, pickled with protocol 5>

A snapshot *is* the run: :mod:`pickle` writes the driver and every
object under it — FSB, memory system, pool, schedulers and their burst
queues, banks, ranks, refresh ledgers, oracles, statistics — with
shared references intact, so one access sitting in a queue, the
completion heap and the CPU's ROB restores as one object.  Two things
stay out of the pickle:

* the input: a closed-loop driver's packed
  :class:`~repro.workloads.trace.Trace` and its columns are written as
  persistent references and resolved against the target's trace on
  load, so a snapshot never carries its trace (the row iterator's
  position pickles with it);
* the process-wide access id counter, which the header carries as
  ``next_access_id``.

The header pins everything a resume must agree on: the code version
(:func:`repro.version.code_version`), the config fingerprint, the
mechanism, the driver kind, the trace length, the FSB wrapping, the
oracle and the engine mode.  It is checked against the target
*before* anything is unpickled.  A disagreement, or a file that cannot
be read back whole, raises :class:`~repro.errors.CheckpointMismatchError`.

Unpickling runs code, so only the program's own snapshots are loaded:
they live under its cache directory at paths it derives itself.

Writes are atomic (temp file + ``os.replace``): a kill that lands
mid-write never damages the previous complete snapshot.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile

from repro.controller.access import (
    ensure_next_access_id,
    peek_next_access_id,
)
from repro.errors import CheckpointMismatchError
from repro.sim.fsb import FSBAdapter
from repro.version import code_version
from repro.workloads.trace import Trace

#: Header keys a snapshot must share with the run it resumes, and
#: what each one names in a mismatch message.
_CHECKED = {
    "code_version": "code version",
    "fingerprint": "config fingerprint",
    "mechanism": "mechanism",
    "driver": "driver kind",
    "trace_records": "trace length",
    "fsb": "front-side-bus transfer cycles",
    "oracle": "protocol oracle",
    "fastfwd": "engine mode (fastfwd)",
}


def _header(driver) -> dict:
    """The header describing ``driver`` as it stands."""
    fsb = driver.system if isinstance(driver.system, FSBAdapter) else None
    system = driver.system if fsb is None else fsb.system
    trace = getattr(driver, "trace", None)
    return {
        "kind": "header",
        "code_version": code_version(),
        "fingerprint": system.config.fingerprint(),
        "mechanism": system.mechanism_name,
        "driver": driver.kind,
        "trace_records": len(trace) if isinstance(trace, Trace) else None,
        "fsb": None if fsb is None else fsb.transfer_cycles,
        "oracle": bool(system.oracles),
        "fastfwd": system._fastfwd,
        "cycle": system.cycle,
        "next_access_id": peek_next_access_id(),
    }


def _inputs(driver) -> list:
    """Objects a snapshot refers to instead of copying: a closed-loop
    driver's packed trace and its columns."""
    trace = getattr(driver, "trace", None)
    if not isinstance(trace, Trace):
        return []
    return [trace] + [c for c in trace.columns() if c is not None]


class _Pickler(pickle.Pickler):
    def __init__(self, file, inputs: list) -> None:
        super().__init__(file, protocol=5)
        self._ids = {id(obj): index for index, obj in enumerate(inputs)}

    def persistent_id(self, obj):
        return self._ids.get(id(obj))


class _Unpickler(pickle.Unpickler):
    def __init__(self, file, inputs: list) -> None:
        super().__init__(file)
        self._inputs = inputs

    def persistent_load(self, pid):
        return self._inputs[pid]


def save_checkpoint(path: str, driver) -> dict:
    """Snapshot ``driver`` (and everything under it) to ``path``.

    Must be called at a run-loop iteration boundary (see
    ``Checkpointer.poll``), where every component invariant holds.
    Saving changes nothing in the live run.  Returns the written
    header.
    """
    header = _header(driver)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            _Pickler(handle, _inputs(driver)).dump(driver)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return header


def _read_header(path: str, handle) -> dict:
    try:
        header = json.loads(handle.readline())
    except ValueError as error:
        raise CheckpointMismatchError(
            f"{path}: truncated or damaged snapshot header ({error})"
        ) from None
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise CheckpointMismatchError(
            f"{path}: truncated or damaged snapshot: line 1 is not a header"
        )
    return header


def read_header(path: str) -> dict:
    """The header line of a snapshot, without unpickling anything."""
    with open(path, "rb") as handle:
        return _read_header(path, handle)


def load_checkpoint(path: str, target):
    """The driver saved at ``path``, restored for ``target``.

    ``target`` is built exactly as for the original run (same config,
    mechanism, driver kind, FSB wrapping, oracle, engine mode and, for
    a CPU driver, the same trace); the header is checked against it
    before anything is unpickled, and the restored driver reads
    ``target``'s trace.  ``target`` itself is left as it was: the
    returned driver is the saved run, observers included.  Header keys
    no check reads (such as the ``meta`` of older saves) are ignored.
    """
    try:
        handle = open(path, "rb")
    except OSError as error:
        raise CheckpointMismatchError(
            f"cannot read snapshot {path}: {error}"
        ) from None
    with handle:
        header = _read_header(path, handle)
        expected = _header(target)
        for key, what in _CHECKED.items():
            if header.get(key) != expected[key]:
                raise CheckpointMismatchError(
                    f"snapshot {what} {header.get(key)!r} != target "
                    f"{expected[key]!r}"
                )
        try:
            driver = _Unpickler(handle, _inputs(target)).load()
        except Exception as error:
            # A cut or damaged payload fails in many ways (EOFError,
            # UnpicklingError, ...); each means it cannot resume.
            raise CheckpointMismatchError(
                f"{path}: truncated or damaged snapshot: "
                f"{type(error).__name__}: {error}"
            ) from None
    # New allocations must be strictly younger than every restored id
    # (ids break completion-heap ties), exactly as uninterrupted.
    ensure_next_access_id(header["next_access_id"])
    return driver


__all__ = ["load_checkpoint", "read_header", "save_checkpoint"]
