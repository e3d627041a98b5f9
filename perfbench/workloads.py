"""The benchmark's workloads: their inputs, their cells and their checks.

A *cell* is one unit of timed work: one closed-loop (benchmark,
mechanism) run through :class:`~repro.cpu.core.OoOCore`, or one
open-loop request stream through
:class:`~repro.sim.engine.OpenLoopDriver`.  A *pass* runs every cell
of a workload's plan once.  Each run of the benchmark repeats whole
passes, so every pass has the same mix of cells and a run's rates do
not depend on where the clock stopped.

Inputs come from the benchmark seed.  Traces and streams are drawn from
a few recorded *input sets* (workload seeds ``1..N``).  In the closed-loop
grids the seed lays Latin squares over (benchmark, mechanism): in square
``k`` cell ``(b, m)`` runs input set ``(b + m + seed + k) % N``, so every
square covers every (benchmark, input set) pair exactly once and seeds
differ only in how inputs meet mechanisms -- the simulated work per run
stays nearly constant, which keeps run-to-run spread down.  The DDR5
grid, whose mechanisms differ most in simulated cycles, runs two squares
a pass: with one, the seed alone swung ``events_per_s`` by 8%.  The
sparse streams use input set ``seed % N``.  The seed also fixes the
order cells run in.

Every cell of every input set has a reference result digest in
``references/<workload>.json``, recorded once with the sequential engine
and the protocol oracle on (``run.py --record``).
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.controller.access import AccessType
from repro.controller.system import MemorySystem
from repro.cpu.core import OoOCore
from repro.dram.timing import DDR5_4800
from repro.experiments.generations import generation_config
from repro.sim.config import baseline_config
from repro.sim.engine import OpenLoopDriver
from repro.workloads.spec2000 import benchmark_names, make_benchmark_trace

#: Paper Table 4 mechanisms, in the order of ``experiments.common``.
FIG7_MECHANISMS = (
    "BkInOrder", "RowHit", "Intel", "Intel_RP",
    "Burst", "Burst_RP", "Burst_WP", "Burst_TH",
)
#: Trace length of one fig7 cell (the service's 500-access floor).
FIG7_ACCESSES = 500

DDR5_BENCHMARKS = ("swim", "gcc", "lucas", "mcf")
DDR5_MECHANISMS = ("BkInOrder", "RowHit", "Burst_TH", "Burst_BPW")
DDR5_ACCESSES = 1000

SPARSE_MECHANISMS = ("Burst_TH", "BkInOrder")
SPARSE_STREAMS = 50
SPARSE_REQUESTS = 300

#: Recorded input sets per workload (the service runs the fig7 grid).
INPUT_SETS = {"fig7_closed": 8, "ddr5_writes": 4, "sparse_open": 8}
#: Latin squares per pass of each closed-loop grid.
SQUARES = {"fig7_closed": 1, "ddr5_writes": 2}

#: Nominal seconds per pass on the reference machine (2-vCPU x86-64,
#: Python 3.11), calibrations included: a run makes
#: ``round(seconds / PASS_SECONDS)`` passes, 2, 3, 3 and 2 at 10 s.  The
#: service's two passes take about 7.5 s each, and both start within the
#: run's wall-time cap even on a slow host.  The count stays fixed since
#: the service's memory grows with every pass: a third pass, run only on
#: a fast host, moved ``peak_rss_mb`` by 5%.
PASS_SECONDS = {
    "fig7_closed": 4.6,
    "sparse_open": 3.3,
    "ddr5_writes": 3.2,
    "service_fig7": 5.0,
}

#: Workloads whose cells run in this process, and the service one.
IN_PROCESS = ("fig7_closed", "sparse_open", "ddr5_writes")
SERVICE = "service_fig7"
WORKLOADS = IN_PROCESS + (SERVICE,)

#: CoreResult fields every closed-loop digest covers.
CORE_FIELDS = (
    "mem_cycles", "cpu_cycles", "instructions", "loads", "stores",
    "head_block_cycles", "store_stall_cycles",
)
#: SimStats fields every digest covers.  A fixed list, so a counter
#: added to SimStats later does not read as a changed result.
STATS_FIELDS = (
    "cycles", "completed_reads", "completed_writes", "forwarded_reads",
    "preemptions", "piggybacked_writes", "write_queue_full_cycles",
    "pool_full_cycles", "cmd_bus_cycles", "data_bus_cycles", "refreshes",
    "read_latency", "write_latency", "row_states", "outstanding_reads",
    "outstanding_writes", "burst_sizes",
)

REFERENCE_DIR = Path(__file__).resolve().parent / "references"


def trace_seed(input_set: int) -> int:
    """Workload seed the simulator receives for one input set."""
    return input_set + 1


def input_set(seed: int) -> int:
    """Inverse of :func:`trace_seed`."""
    return seed - 1


def reference_workload(workload: str) -> str:
    """The service runs the fig7 cells, so it shares their references."""
    return "fig7_closed" if workload == SERVICE else workload


@dataclass
class Cell:
    """One unit of timed work and the inputs it runs on."""

    id: str
    input_set: int
    benchmark: str
    mechanism: str
    accesses: int
    inputs: list
    config: object
    open_loop: bool = False

    @property
    def key(self) -> str:
        """The cell id with its input set: unique within a pass."""
        return f"{self.id}@{self.input_set}"


@dataclass
class CellOutcome:
    """What one cell produced: its digest and the model's counts."""

    cell: Cell
    host_s: float
    events: int
    digest: str
    stats: dict
    core: Optional[dict] = None
    #: Lookout scans that found a window (hits) and that did not.
    lookouts: Optional[tuple] = None
    #: ``host_s`` restated in reference seconds (``calibration.py``).
    reference_s: Optional[float] = None


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------


def _grid(workload: str):
    """Benchmarks, mechanisms, trace length and machine of a closed grid."""
    if workload in ("fig7_closed", SERVICE):
        return benchmark_names(), FIG7_MECHANISMS, FIG7_ACCESSES, baseline_config()
    return DDR5_BENCHMARKS, DDR5_MECHANISMS, DDR5_ACCESSES, generation_config(DDR5_4800)


def latin_squares(workload: str, seed: int) -> List[tuple]:
    """``(benchmark, mechanism, input_set)`` of every cell of a grid's pass."""
    benchmarks, mechanisms, _, _ = _grid(workload)
    sets = INPUT_SETS[workload]
    return [
        (bench, mech, (b + m + seed + square) % sets)
        for square in range(SQUARES[workload])
        for b, bench in enumerate(benchmarks)
        for m, mech in enumerate(mechanisms)
    ]


def _closed_cells(workload: str, triples) -> List[Cell]:
    _, _, accesses, config = _grid(workload)
    return [
        Cell(f"{bench}/{mech}", input_set, bench, mech, accesses,
             make_benchmark_trace(bench, accesses, trace_seed(input_set)), config)
        for bench, mech, input_set in triples
    ]


def _sparse_cells(input_set: int) -> List[Cell]:
    config = baseline_config()
    cells = []
    for index in range(SPARSE_STREAMS):
        stream = f"stream{index:02d}"
        requests = sparse_requests(trace_seed(input_set) * 1000 + index)
        cells.extend(
            Cell(f"{stream}/{mech}", input_set, stream, mech, SPARSE_REQUESTS,
                 requests, config, open_loop=True)
            for mech in SPARSE_MECHANISMS
        )
    return cells


def plan(workload: str, seed: int, limit: Optional[int] = None) -> List[Cell]:
    """One pass of a run: the seed's cells in the seed's order.

    ``limit`` keeps only the first cells, before shuffling (quick checks).
    """
    if workload == "sparse_open":
        cells = _sparse_cells(seed % INPUT_SETS[workload])
    else:
        cells = _closed_cells(workload, latin_squares(workload, seed))
    cells = cells[:limit]
    random.Random(seed).shuffle(cells)
    return cells


def reference_cells(workload: str, input_set: int) -> List[Cell]:
    """Every cell of one input set, for recording references."""
    if workload == "sparse_open":
        return _sparse_cells(input_set)
    benchmarks, mechanisms, _, _ = _grid(workload)
    return _closed_cells(
        workload, [(b, m, input_set) for b in benchmarks for m in mechanisms]
    )


def sparse_requests(seed: int) -> list:
    """A Figure-1-style stream: 100-300 idle cycles apart, 30% writes."""
    rng = random.Random(seed)
    cycle = 0
    requests = []
    for _ in range(SPARSE_REQUESTS):
        cycle += rng.randint(100, 300)
        op = AccessType.WRITE if rng.random() < 0.3 else AccessType.READ
        requests.append((cycle, op, rng.randrange(1 << 28) & ~0x3F))
    return requests


# ----------------------------------------------------------------------
# Running cells
# ----------------------------------------------------------------------


def digest(stats: dict, core: Optional[dict] = None, completions=None) -> str:
    """Digest of a cell's named result fields (16 hex digits)."""
    payload = {"stats": {name: stats[name] for name in STATS_FIELDS}}
    if core is not None:
        payload["core"] = {name: core[name] for name in CORE_FIELDS}
    if completions is not None:
        payload["completions"] = completions
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def run_cell(cell: Cell, clock, tracer=None, parent=None) -> CellOutcome:
    """Simulate one cell; ``clock`` times the simulation only.

    With a ``tracer`` the timed region is also a span under ``parent``.
    """
    span = tracer.open_span("cell", parent, cell=cell.id) if tracer else None
    if cell.open_loop:
        start = clock()
        system = MemorySystem(cell.config, cell.mechanism)
        driver = OpenLoopDriver(system, cell.inputs)
        events = driver.run()
        host_s = clock() - start
        core = None
        completions = [access.complete_cycle for access in driver.completed]
    else:
        start = clock()
        system = MemorySystem(cell.config, cell.mechanism)
        result = OoOCore(system, cell.inputs).run()
        host_s = clock() - start
        events = result.mem_cycles
        core = result.to_dict()
        completions = None
    if tracer:
        tracer.close_span(span)
    stats = system.stats.to_dict()
    lookouts = (system.stats.lookout_hits, system.stats.lookout_misses)
    return CellOutcome(
        cell, host_s, events, digest(stats, core, completions), stats, core,
        lookouts,
    )


# ----------------------------------------------------------------------
# References and the model's counts
# ----------------------------------------------------------------------


def load_references(workload: str, directory: Path = REFERENCE_DIR) -> Dict[str, Dict[str, str]]:
    """Reference digests by input set, then by cell id."""
    path = Path(directory) / f"{reference_workload(workload)}.json"
    return json.loads(path.read_text())["inputs"]


def expected_digest(references: Dict[str, Dict[str, str]], cell: Cell) -> Optional[str]:
    return references.get(str(cell.input_set), {}).get(cell.id)


def model_counts(outcomes: List[CellOutcome]) -> Dict[str, float]:
    """Simulated-time outputs a host-speed change must leave identical."""
    mem_cycles = sum(o.events for o in outcomes)
    reads = [o.stats["read_latency"] for o in outcomes]
    writes = [o.stats["write_latency"] for o in outcomes]
    rows = [o.stats["row_states"] for o in outcomes]
    row_total = sum(sum(r.values()) for r in rows)
    per_mech: Dict[str, int] = {}
    for o in outcomes:
        per_mech[o.cell.mechanism] = per_mech.get(o.cell.mechanism, 0) + o.events
    base = per_mech.get("BkInOrder", 0)
    best = per_mech.get("Burst_TH", 0)
    return {
        "model.mem_cycles": mem_cycles,
        "model.read_latency_cycles": _mean(reads),
        "model.write_latency_cycles": _mean(writes),
        "model.row_hit_rate": (
            sum(r["hit"] for r in rows) / row_total if row_total else 0.0
        ),
        "model.preemptions": sum(o.stats["preemptions"] for o in outcomes),
        "model.piggybacked_writes": sum(
            o.stats["piggybacked_writes"] for o in outcomes
        ),
        "model.refreshes": sum(o.stats["refreshes"] for o in outcomes),
        "model.exec_reduction_pct": (
            (base - best) / base * 100.0 if base and best else 0.0
        ),
    }


def _mean(latencies: List[dict]) -> float:
    count = sum(stat["count"] for stat in latencies)
    return sum(stat["total"] for stat in latencies) / count if count else 0.0


def percentile_ms(samples_s: List[float], q: int) -> float:
    """The ``q``-th percentile of host seconds, in milliseconds."""
    if len(samples_s) < 2:
        return samples_s[0] * 1000.0
    return statistics.quantiles(samples_s, n=100, method="inclusive")[q - 1] * 1000.0
