"""Cell and job model for the simulation service.

A submission is either an explicit list of cells or the name of a
known experiment matrix; either way it expands — deterministically, in
a stable order — into :class:`CellSpec` units the server schedules.
Every cell is one of the runner's content-addressed (benchmark,
mechanism, accesses, seed, config) closed-loop cells: deduped against
``.repro-cache/``, checkpointable, migratable.

The wire format is plain JSON: a cell ships its full
``SystemConfig.to_dict()`` so server and worker agree on the exact
machine, and the server-computed ``key`` rides along so the worker
checkpoints at the path the next worker will look in.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.controller.registry import MECHANISMS as MECHANISM_REGISTRY
from repro.errors import ServiceError
from repro.experiments import common, generations, runner
from repro.sim.config import SystemConfig
from repro.workloads.spec2000 import benchmark_names


def canonical_json(payload: object) -> str:
    """The one JSON encoding digests are computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def result_digest(payload: object) -> str:
    """Stable content digest of one cell's result payload.

    Byte-identity is the service's acceptance bar: a migrated cell, a
    cache-served cell and a fresh in-process run of the same cell must
    all produce the same digest.
    """
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()


@dataclass(frozen=True)
class CellSpec:
    """One schedulable unit of work, with its dedupe key."""

    key: str            # the runner's content address
    payload: dict       # wire fields
    #: The cell as the runner's :data:`~repro.experiments.runner.Cell`
    #: (what ``sim_cell_from_wire`` would rebuild from the payload).
    cell: runner.Cell = field(compare=False, repr=False)

    def to_wire(self) -> dict:
        return {"key": self.key, **self.payload}

    @property
    def label(self) -> str:
        """Short human identity for logs and events."""
        return f"{self.payload['benchmark']}/{self.payload['mechanism']}"


def sim_cell_spec(
    benchmark: str,
    mechanism: str,
    accesses: int,
    seed: int,
    config: SystemConfig,
    wire_config: Optional[dict] = None,
) -> CellSpec:
    """A cell keyed exactly like the runner's result cache.

    ``wire_config`` is ``config.to_dict()`` when the caller already
    holds it: a matrix serialises its shared config once, not per cell.
    """
    if wire_config is None:
        wire_config = config.to_dict()
    key = runner.cell_key(benchmark, mechanism, accesses, seed, wire_config)
    return CellSpec(
        key=key,
        payload={
            "benchmark": benchmark,
            "mechanism": mechanism,
            "accesses": int(accesses),
            "seed": int(seed),
            "config": wire_config,
        },
        cell=(benchmark, mechanism, int(accesses), int(seed), config),
    )


def sim_cell_from_wire(data: dict) -> runner.Cell:
    """Decode a cell's wire payload back into a runner cell."""
    try:
        return (
            data["benchmark"],
            data["mechanism"],
            int(int_param(data, "accesses", minimum=1)),
            int(int_param(data, "seed")),
            SystemConfig.from_dict(data["config"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ServiceError(f"malformed sim cell: {error!r}") from None


def int_param(data: dict, name: str, default=None, minimum=None):
    """``data[name]`` (``default`` if absent or null): an int >= ``minimum``.

    JSON lets ``"3"``, ``3.5`` and ``true`` through; each is a client
    error, not a worker crash.
    """
    value = data.get(name)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int) or (
        minimum is not None and value < minimum
    ):
        floor = "" if minimum is None else f" >= {minimum}"
        raise ServiceError(f"{name!r} must be an integer{floor}, got {value!r}")
    return value


def _names_param(params: dict, name: str, default) -> List[str]:
    """A list of strings, or ``default`` when absent or empty."""
    value = params.get(name) or list(default)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ServiceError(f"{name!r} must be a list of strings, got {value!r}")
    return value


def spec_from_wire(data: dict) -> CellSpec:
    """Validate + normalise one client-supplied cell dict.

    A ``kind`` field is optional; ``"sim"``, the one cell kind, is the
    only value accepted.
    """
    if not isinstance(data, dict):
        raise ServiceError(f"a cell must be an object, got {data!r}")
    kind = data.get("kind", "sim")
    if kind != "sim":
        raise ServiceError(f"unknown cell kind {kind!r}")
    benchmark, mechanism, accesses, seed, config = sim_cell_from_wire(data)
    _check_mechanism(mechanism)
    _check_benchmark(benchmark)
    return sim_cell_spec(benchmark, mechanism, accesses, seed, config)


def _check_mechanism(mechanism: str) -> None:
    if mechanism not in MECHANISM_REGISTRY:
        raise ServiceError(
            f"unknown mechanism {mechanism!r}; "
            f"available: {sorted(MECHANISM_REGISTRY)}"
        )


def _check_benchmark(benchmark: str) -> None:
    if benchmark not in benchmark_names():
        raise ServiceError(
            f"unknown benchmark {benchmark!r}; "
            f"available: {benchmark_names()}"
        )


# ----------------------------------------------------------------------
# Matrix expansion
# ----------------------------------------------------------------------


def _expand(params: dict, benchmarks, mechanisms, cells) -> List[CellSpec]:
    """Specs for an experiment's own cell list, ``cells(benchmarks,
    mechanisms, accesses, seed=seed)``; each distinct config is
    serialised once."""
    benchmarks = _names_param(params, "benchmarks", benchmarks)
    mechanisms = _names_param(params, "mechanisms", mechanisms)
    for benchmark in benchmarks:
        _check_benchmark(benchmark)
    for mechanism in mechanisms:
        _check_mechanism(mechanism)
    accesses = int_param(params, "accesses", minimum=1)
    seed = int_param(params, "seed")
    wire: Dict[SystemConfig, dict] = {}
    specs = []
    for cell in cells(benchmarks, mechanisms, accesses, seed=seed).values():
        if cell[4] not in wire:
            wire[cell[4]] = cell[4].to_dict()
        specs.append(sim_cell_spec(*cell, wire[cell[4]]))
    return specs


def _expand_fig7(params: dict) -> List[CellSpec]:
    """The shared benchmark × mechanism matrix behind Figures 7-10."""
    return _expand(params, benchmark_names(), common.MECHANISMS, common.matrix)


def _expand_generations(params: dict) -> List[CellSpec]:
    """The generation-ladder fig7 matrix (experiments.generations)."""
    return _expand(
        params, generations.BENCHMARKS, generations.MECHANISMS,
        generations.cells,
    )


MATRICES = {
    "fig7": _expand_fig7,
    "generations": _expand_generations,
}


def expand_submission(request: dict) -> List[CellSpec]:
    """Expand one submit request into its ordered, deduped cell list.

    Order is the expansion order (the dispatch tie-break, which makes
    single-worker completion order reproducible); duplicate keys
    within one submission collapse to the first occurrence.
    """
    matrix = request.get("matrix")
    cells = request.get("cells")
    if (matrix is None) == (cells is None):
        raise ServiceError(
            "a submission needs exactly one of 'matrix' or 'cells'"
        )
    if matrix is not None:
        expander = MATRICES.get(matrix)
        if expander is None:
            raise ServiceError(
                f"unknown matrix {matrix!r}; available: {sorted(MATRICES)}"
            )
        params = request.get("params") or {}
        if not isinstance(params, dict):
            raise ServiceError(f"'params' must be an object, got {params!r}")
        specs = expander(params)
    else:
        if not isinstance(cells, Sequence) or isinstance(cells, (str, bytes)):
            raise ServiceError("'cells' must be a list of cell dicts")
        if not cells:
            raise ServiceError("'cells' must not be empty")
        specs = [spec_from_wire(cell) for cell in cells]
    unique: Dict[str, CellSpec] = {}
    for spec in specs:
        unique.setdefault(spec.key, spec)
    return list(unique.values())


__all__ = [
    "MATRICES",
    "CellSpec",
    "canonical_json",
    "expand_submission",
    "int_param",
    "result_digest",
    "sim_cell_from_wire",
    "sim_cell_spec",
    "spec_from_wire",
]
