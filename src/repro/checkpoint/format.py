"""Snapshot file format: versioned JSON-lines with an access registry.

Layout (one JSON object per line)::

    {"kind": "header", "schema": 1, "fingerprint": ..., ...}
    {"kind": "accesses", "accesses": [<MemoryAccess.to_state()>, ...]}
    {"kind": "component", "name": "system", "state": {...}}
    {"kind": "component", "name": "fsb", "state": {...}}      # optional
    {"kind": "component", "name": "driver", "state": {...}}
    {"kind": "end", "lines": 5}

Why a registry: one :class:`~repro.controller.access.MemoryAccess` is
typically referenced from several places at once — a scheduler queue,
the completion heap, the CPU's ROB, a burst's deque.  Components
serialize *references* (the access id, via :meth:`SaveContext.ref`)
and the registry stores each access exactly once; on load,
:class:`LoadContext` materializes one object per id, so every restored
reference points at the same object and mutations (completion stamps,
``forwarded`` flags) stay shared exactly as in the original run.

The header pins everything a resume must agree on — schema version,
:meth:`SystemConfig.fingerprint`, mechanism, driver kind, FSB and
oracle topology — and any disagreement raises a typed
:class:`~repro.errors.CheckpointMismatchError` up front instead of a
``KeyError`` deep inside a component.

Writes are atomic (temp file + ``os.replace``) and the trailing
``end`` line guards against truncated snapshots from a kill that lands
mid-write: the previous complete snapshot is never damaged.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, Optional

from repro.controller.access import (
    MemoryAccess,
    ensure_next_access_id,
    peek_next_access_id,
)
from repro.errors import CheckpointMismatchError

#: Bump on ANY change to the snapshot layout or a component's
#: state_dict payload.  Folded into the experiment runner's
#: code-version digest, so stale runner checkpoints (and cached cells
#: keyed on serialization behaviour) invalidate automatically.
#: 4: generation profiles — rank bank-group gating state
#: (ready_column_any / ready_column_group / ready_read_group), the
#: matching oracle shadows, and the Burst_BPW drain latch entered the
#: payloads; schema-3 snapshots predate all of them.
#: 5: staged trace records carry their source; the stats dropped
#: ``read_latency_per_slice`` and the per-source ``read_latency``.
#: 6: one open-loop driver kind; its state is per-source lanes (the
#: ``"fleet"`` kind is gone).
SCHEMA_VERSION = 6


class SaveContext:
    """Collects every access referenced while components serialize."""

    def __init__(self) -> None:
        self._accesses: Dict[int, MemoryAccess] = {}

    def ref(self, access: MemoryAccess) -> int:
        """Register ``access`` and return its id (the reference)."""
        self._accesses[access.id] = access
        return access.id

    def ref_opt(self, access: Optional[MemoryAccess]) -> Optional[int]:
        """:meth:`ref`, passing ``None`` through."""
        return None if access is None else self.ref(access)

    def payload(self) -> list:
        """The registry as a JSON-safe list, sorted by id."""
        return [
            self._accesses[ident].to_state()
            for ident in sorted(self._accesses)
        ]


class LoadContext:
    """Resolves saved references back to (shared) access objects."""

    def __init__(self, payload: list) -> None:
        self._accesses: Dict[int, MemoryAccess] = {}
        for state in payload:
            self._accesses[state["id"]] = MemoryAccess.from_state(state)

    def get(self, ref: int) -> MemoryAccess:
        """The one access object for ``ref``; same id → same object."""
        try:
            return self._accesses[ref]
        except KeyError:
            raise CheckpointMismatchError(
                f"snapshot references access id {ref} that is missing "
                "from its registry (corrupt or hand-edited snapshot)"
            ) from None

    def get_opt(self, ref: Optional[int]) -> Optional[MemoryAccess]:
        """:meth:`get`, passing ``None`` through."""
        return None if ref is None else self.get(ref)


def _split_target(driver):
    """(memory system, fsb adapter or None) behind a driver.

    Drivers hold either a bare MemorySystem or an FSBAdapter wrapping
    one; the snapshot stores the FSB's lane state as its own component
    so either topology round-trips.
    """
    from repro.sim.fsb import FSBAdapter

    target = driver.system
    if isinstance(target, FSBAdapter):
        return target.system, target
    return target, None


def save_checkpoint(path: str, driver) -> dict:
    """Snapshot ``driver`` (and everything under it) to ``path``.

    Must be called at a run-loop iteration boundary (see
    ``Checkpointer.poll``) — component invariants all hold there.
    Saving has no side effects on the live objects, so the original
    run can simply continue afterwards.  Returns the written header.
    """
    system, fsb = _split_target(driver)
    ctx = SaveContext()
    # Serialize components FIRST: refs are collected as a side effect,
    # and the registry line must be complete before it is written.
    components = [("system", system.state_dict(ctx))]
    if fsb is not None:
        components.append(("fsb", fsb.state_dict(ctx)))
    components.append(("driver", driver.state_dict(ctx)))
    header = {
        "kind": "header",
        "schema": SCHEMA_VERSION,
        "fingerprint": system.config.fingerprint(),
        "mechanism": system.mechanism_name,
        "driver": driver.kind,
        "cycle": system.cycle,
        "oracle": bool(system.oracles),
        "fsb": None if fsb is None else fsb.transfer_cycles,
        "next_access_id": peek_next_access_id(),
    }
    lines = [
        json.dumps(header, sort_keys=True),
        json.dumps(
            {"kind": "accesses", "accesses": ctx.payload()}, sort_keys=True
        ),
    ]
    for name, state in components:
        lines.append(json.dumps(
            {"kind": "component", "name": name, "state": state},
            sort_keys=True,
        ))
    lines.append(json.dumps({"kind": "end", "lines": len(lines) + 1}))
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return header


def _parse(path: str) -> tuple:
    """(header, accesses payload, {name: state}) from a snapshot file."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line]
    if not lines:
        raise CheckpointMismatchError(f"empty snapshot file: {path}")
    records = [json.loads(line) for line in lines]
    header = records[0]
    if header.get("kind") != "header":
        raise CheckpointMismatchError(
            f"{path}: first line is {header.get('kind')!r}, not a header"
        )
    end = records[-1]
    if end.get("kind") != "end" or end.get("lines") != len(records):
        raise CheckpointMismatchError(
            f"{path}: truncated snapshot (missing or inconsistent end "
            "guard) — the save was interrupted mid-write"
        )
    accesses = None
    components: Dict[str, Any] = {}
    for record in records[1:-1]:
        if record["kind"] == "accesses":
            accesses = record["accesses"]
        elif record["kind"] == "component":
            components[record["name"]] = record["state"]
    if accesses is None:
        raise CheckpointMismatchError(f"{path}: no access registry line")
    return header, accesses, components


def read_header(path: str) -> dict:
    """The header line of a snapshot, without loading anything."""
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
    header = json.loads(first)
    if header.get("kind") != "header":
        raise CheckpointMismatchError(
            f"{path}: first line is {header.get('kind')!r}, not a header"
        )
    return header


def load_checkpoint(path: str, driver) -> dict:
    """Restore a snapshot into a freshly constructed ``driver``.

    ``driver`` must be built exactly as for the original run: same
    config, mechanism, driver kind, FSB wrapping, observers and (for
    CPU drivers) the same regenerated trace.  Restore is in-place, so
    anything already attached to the system — channel command
    listeners, oracles, a shared stats bundle — stays attached.
    Returns the snapshot header; keys no check reads (such as the
    ``meta`` of older saves) are ignored.
    """
    header, accesses, components = _parse(path)
    if header["schema"] != SCHEMA_VERSION:
        raise CheckpointMismatchError(
            f"snapshot schema {header['schema']} != supported "
            f"{SCHEMA_VERSION}; re-run from scratch"
        )
    system, fsb = _split_target(driver)
    fingerprint = system.config.fingerprint()
    if header["fingerprint"] != fingerprint:
        raise CheckpointMismatchError(
            f"snapshot config fingerprint {header['fingerprint']} != "
            f"target {fingerprint}: the system configuration drifted "
            "since the snapshot was taken"
        )
    if header["mechanism"] != system.mechanism_name:
        raise CheckpointMismatchError(
            f"snapshot mechanism {header['mechanism']!r} != target "
            f"{system.mechanism_name!r}"
        )
    if header["driver"] != driver.kind:
        raise CheckpointMismatchError(
            f"snapshot driver kind {header['driver']!r} != target "
            f"{driver.kind!r}"
        )
    if (header["fsb"] is not None) != (fsb is not None):
        raise CheckpointMismatchError(
            "snapshot and target disagree on front-side-bus wrapping "
            f"(snapshot fsb={header['fsb']!r}, target "
            f"{'wrapped' if fsb is not None else 'bare'})"
        )
    if fsb is not None and header["fsb"] != fsb.transfer_cycles:
        raise CheckpointMismatchError(
            f"snapshot FSB transfer_cycles {header['fsb']} != target "
            f"{fsb.transfer_cycles}"
        )
    # New allocations must be strictly younger than every restored id
    # (ids break completion-heap ties), exactly as uninterrupted.
    ensure_next_access_id(header["next_access_id"])
    ctx = LoadContext(accesses)
    system.load_state_dict(components["system"], ctx)
    if fsb is not None:
        fsb.load_state_dict(components["fsb"], ctx)
    driver.load_state_dict(components["driver"], ctx)
    return header


__all__ = [
    "SCHEMA_VERSION",
    "LoadContext",
    "SaveContext",
    "load_checkpoint",
    "read_header",
    "save_checkpoint",
]
