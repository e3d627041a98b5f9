"""Submissions and result digests for the simulation service.

A submission is either an explicit list of cells or the name of a
known experiment matrix; either way it expands — deterministically, in
a stable order — into the runner's content-addressed (benchmark,
mechanism, accesses, seed, config) closed-loop cells, each under its
:func:`~repro.experiments.runner.cell_key`: deduped against
``.repro-cache/``, checkpointable, migratable.

A client's cell is the runner's wire form
(:func:`~repro.experiments.runner.cell_wire`, plus an optional
``"kind": "sim"``); this module only checks it before the runner
decodes it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Sequence

from repro.controller.registry import MECHANISMS as MECHANISM_REGISTRY
from repro.errors import ServiceError
from repro.experiments import common, generations, runner
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


def cell_from_client(data: dict) -> runner.Cell:
    """Validate one client-supplied cell dict and decode it.

    A ``kind`` field is optional; ``"sim"``, the one cell kind, is the
    only value accepted.  The workload must be a SPEC profile.
    """
    if not isinstance(data, dict):
        raise ServiceError(f"a cell must be an object, got {data!r}")
    kind = data.get("kind", "sim")
    if kind != "sim":
        raise ServiceError(f"unknown cell kind {kind!r}")
    checked = dict(
        data,
        accesses=int_param(data, "accesses", minimum=1),
        seed=int_param(data, "seed"),
    )
    try:
        cell = runner.cell_from_wire(checked)
    except (KeyError, TypeError, ValueError) as error:
        raise ServiceError(f"malformed sim cell: {error!r}") from None
    _check_mechanism(cell[1])
    _check_benchmark(cell[0])
    return cell


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


def _expand(params: dict, benchmarks, mechanisms, cells) -> List[runner.Cell]:
    """An experiment's own cell list, ``cells(benchmarks, mechanisms,
    accesses, seed=seed)``."""
    benchmarks = _names_param(params, "benchmarks", benchmarks)
    mechanisms = _names_param(params, "mechanisms", mechanisms)
    for benchmark in benchmarks:
        _check_benchmark(benchmark)
    for mechanism in mechanisms:
        _check_mechanism(mechanism)
    accesses = int_param(params, "accesses", minimum=1)
    seed = int_param(params, "seed")
    return list(cells(benchmarks, mechanisms, accesses, seed=seed).values())


def _expand_fig7(params: dict) -> List[runner.Cell]:
    """The shared benchmark × mechanism matrix behind Figures 7-10."""
    return _expand(params, benchmark_names(), common.MECHANISMS, common.matrix)


def _expand_generations(params: dict) -> List[runner.Cell]:
    """The generation-ladder fig7 matrix (experiments.generations)."""
    return _expand(
        params, generations.BENCHMARKS, generations.MECHANISMS,
        generations.cells,
    )


MATRICES = {
    "fig7": _expand_fig7,
    "generations": _expand_generations,
}


def expand_submission(request: dict) -> Dict[str, runner.Cell]:
    """Expand one submit request into its ordered, deduped ``{key: cell}``.

    Order is the expansion order (the dispatch tie-break, which makes
    single-worker completion order reproducible); duplicate keys
    within one submission collapse to the first occurrence.  Each key
    is the runner's :func:`~repro.experiments.runner.cell_key`.
    """
    matrix = request.get("matrix")
    given = request.get("cells")
    if (matrix is None) == (given is None):
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
        cells = expander(params)
    else:
        if not isinstance(given, Sequence) or isinstance(given, (str, bytes)):
            raise ServiceError("'cells' must be a list of cell dicts")
        if not given:
            raise ServiceError("'cells' must not be empty")
        cells = [cell_from_client(cell) for cell in given]
    unique: Dict[str, runner.Cell] = {}
    for cell in cells:
        unique.setdefault(runner.cell_key(*cell), cell)
    return unique


__all__ = [
    "MATRICES",
    "canonical_json",
    "cell_from_client",
    "expand_submission",
    "int_param",
    "result_digest",
]
