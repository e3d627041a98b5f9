"""The repository benchmark: host speed of the simulator, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload fig7_closed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each
    python3 perfbench/run.py --record                  # re-record reference digests

Workloads (why each was chosen):

* ``fig7_closed`` -- the paper's Figure 7 matrix: 16 SPEC2000 profiles x
  the 8 Table 4 mechanisms, ``OoOCore`` closed loop on DDR2-800, one
  cell at a time in this process.  Saturated: the CPU model and the
  schedule pass do most of the work and skipping barely helps.
* ``sparse_open`` -- Figure-1-style open-loop streams through
  ``OpenLoopDriver`` on Burst_TH and BkInOrder, no CPU model.  Arrivals
  are 100-300 idle cycles apart, 30% writes, random addresses.  The run
  loop, lookout and ``skip_to`` do the work: the bypass case for CPU and
  scheduler changes.
* ``ddr5_writes`` -- DDR5-4800 under its native REFpb refresh, closed
  loop, write-heavy swim/gcc/lucas plus read-bound mcf, on BkInOrder,
  RowHit, Burst_TH and Burst_BPW.  Write drain, bank-group gates, BL16,
  sub-channels and per-bank refresh: code the DDR2 matrix never runs.
* ``service_fig7`` -- the fig7 matrix submitted to a fresh ``JobServer``
  with an empty cache directory, cold and then as a warm resubmission.
  The only workload that runs worker IPC, dispatch and the result cache.
  It runs one worker: on a 2-vCPU host, two workers plus the server
  swung the service's rates by up to 40% from run to run as the host's
  load on the second vCPU changed.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: host
time is CPU time (``time.process_time``) for the in-process workloads
and wall time for the service.  Every timed cell sits between two runs
of the fixed calibration loop of ``calibration.py``, in the thread that
simulates it (for the service, in the worker, by ``sitehook/``), and
its host time is restated in *reference seconds*: seconds of the
reference machine at its quiet speed.  That cancels the slow phases of
a shared host, which swing raw times of whole runs by 30% and more.
The rates and ``cell_p50_ms`` are in reference seconds; the log lines
say how fast the host ran against the reference.  ``setup_s`` and
``peak_rss_mb`` are as measured.  ``--trace 1`` installs the wrappers of
``tracer.py`` and prints the per-layer metrics instead, writing per-cell
spans to ``.perfbench-out/``.  The last line of standard output is
always one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every cell's result is checked against the recorded
reference digests; a mismatch or an exception counts as a failed cell,
and ``failed / attempted`` is the run's failure fraction.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from calibration import REFERENCE_S, calibrate, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SITEHOOK = HERE / "sitehook"
TMP = ROOT / ".perfbench-tmp"
OUT = ROOT / ".perfbench-out"

#: Knobs that change host cost, with the only value a timed run allows.
HOST_COST_DEFAULTS = {
    "REPRO_FASTFWD": "1",
    "REPRO_PROFILE": "0",
    "REPRO_ORACLE": "0",
    "REPRO_NUMPY": "1",
    "REPRO_CHECKPOINT": "0",
    "REPRO_JOBS": "1",
    "REPRO_SCALE": "1.0",
}
#: What the benchmark pins for itself: no persistent cache in-process,
#: no progress lines.  The service gets a temporary cache of its own.
PINNED = {"REPRO_CACHE": "0", "REPRO_PROGRESS": "0"}

#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: A busy host stretches the fixed pass count; past this many times
#: ``--seconds`` no further pass starts, so a run stays bounded.
WALL_CAP = 1.5
SERVICE_WORKERS = 1

MODEL_UNITS = {
    "model.mem_cycles": "cycles",
    "model.read_latency_cycles": "cycles",
    "model.write_latency_cycles": "cycles",
    "model.row_hit_rate": "ratio",
    "model.preemptions": "count",
    "model.piggybacked_writes": "count",
    "model.refreshes": "count",
    "model.exec_reduction_pct": "%",
}


class SetupError(RuntimeError):
    """The benchmark cannot run here (no sources, refused knob, ...)."""


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------


def check_environment(timed: bool = True) -> None:
    """Find the simulator sources; refuse knobs that change host cost."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no simulator sources under {SRC}")
    if timed:
        refused = {
            knob: os.environ[knob]
            for knob, default in HOST_COST_DEFAULTS.items()
            if knob in os.environ and os.environ[knob] != default
        }
        if refused:
            raise SetupError(f"refusing to time with host-cost knobs set: {refused}")
        os.environ.update(PINNED)
    sys.path.insert(0, str(SRC))


def provenance(args) -> dict:
    import workloads as wl

    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": {
            "fig7_accesses": wl.FIG7_ACCESSES,
            "ddr5_accesses": wl.DDR5_ACCESSES,
            "sparse_streams": wl.SPARSE_STREAMS,
            "sparse_requests": wl.SPARSE_REQUESTS,
            "cells_limit": args.cells,
        },
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "knobs": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


class InProcess:
    """Set-up of an in-process workload: the seed's plan and references."""

    #: Calibrations other processes ran during set-up: none here.
    setup_calibrations: List[float] = []

    def __init__(self, args) -> None:
        import workloads as wl
        from repro.controller.flatcore import numpy_enabled
        from repro.experiments.runner import code_version

        code_version()
        numpy_enabled()
        start = time.perf_counter()
        self.cells = wl.plan(args.workload, args.seed, args.cells)
        self.gen_s = time.perf_counter() - start
        self.references = wl.load_references(args.workload, args.references)
        # Warm every mechanism's code paths (first-call and allocator
        # growth costs) so the first timed pass is not an outlier.
        warmup = {cell.mechanism: cell for cell in reversed(self.cells)}
        for cell in warmup.values():
            wl.run_cell(cell, time.process_time)

    def close(self) -> None:
        pass


class Service:
    """A fresh job server with a warm worker and an empty cache."""

    def __init__(self, args) -> None:
        import workloads as wl
        from repro.experiments.runner import code_version
        from repro.service.client import ServiceClient
        from repro.sim.config import baseline_config
        from repro.workloads.spec2000 import benchmark_names

        code_version()
        start = time.perf_counter()
        # Pass p submits the fig7 matrix on input set seed + p, so no
        # pass is served from the cache of another.
        sets = wl.INPUT_SETS["fig7_closed"]
        benchmarks = None
        if args.cells is not None:
            benchmarks = benchmark_names()[: -(-args.cells // len(wl.FIG7_MECHANISMS))]
        self.passes = [
            {"accesses": wl.FIG7_ACCESSES, "seed": wl.trace_seed((args.seed + p) % sets),
             "benchmarks": benchmarks}
            for p in range(sets)
        ]
        self.gen_s = time.perf_counter() - start
        self.references = wl.load_references(args.workload, args.references)
        self.dir = TMP / f"service-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cache = self.dir / "cache"
        socket = os.path.relpath(self.dir / "serve.sock", ROOT)
        self.log = self.dir / "calibration.jsonl"
        self.log_offset = 0
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=os.pathsep.join((str(SRC), str(SITEHOOK))),
            PERFBENCH_CALIBRATION_LOG=str(self.log),
            REPRO_CACHE="1",
            REPRO_CACHE_DIR=str(self.cache),
            REPRO_PROGRESS="0",
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.cli", "start",
             "--socket", socket, "--workers", str(SERVICE_WORKERS)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        )
        try:
            self.client = ServiceClient(socket, timeout=120)
            self.client.wait_ready(timeout=60)
            deadline = time.monotonic() + 60
            while not all(w["idle"] for w in self.workers()):
                if time.monotonic() > deadline:
                    raise SetupError("service workers never became ready")
                time.sleep(0.01)
            # One cell per worker, outside every input set, so each
            # worker has imported the simulator before timing starts.
            config = baseline_config().to_dict()
            warmup = [
                {"kind": "sim", "benchmark": "swim", "mechanism": mech,
                 "accesses": wl.FIG7_ACCESSES, "seed": 0, "config": config}
                for mech in wl.FIG7_MECHANISMS[:SERVICE_WORKERS]
            ]
            self.client.submit(cells=warmup, wait=True)
            #: The worker's calibrations at start-up and after the warm-up.
            self.setup_calibrations = [e["calibration_s"] for e in self.new_calibrations()]
            if not self.setup_calibrations:
                raise SetupError("service workers logged no calibration")
            #: The worker's latest calibration: the one before its next cell.
            self.last_calibration = self.setup_calibrations[-1]
        except BaseException:
            self.close()
            raise

    def workers(self) -> list:
        return self.client.status()["workers"]

    def new_calibrations(self) -> List[dict]:
        """Worker calibration log entries written since the last call."""
        try:
            with open(self.log, "rb") as handle:
                handle.seek(self.log_offset)
                data = handle.read()
        except FileNotFoundError:
            return []
        data = data[: data.rfind(b"\n") + 1]
        self.log_offset += len(data)
        return [json.loads(line) for line in data.splitlines()]

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server and its workers."""
        pids = [self.proc.pid] + [w["pid"] for w in self.workers()]
        return sum(_vm_hwm_mb(pid) for pid in pids)

    def close(self) -> None:
        from repro.errors import ServiceError

        try:
            if self.proc.poll() is None:
                self.client.shutdown()
            self.proc.wait(timeout=60)
        except (ServiceError, OSError, subprocess.TimeoutExpired, AttributeError):
            self.proc.kill()
            self.proc.wait()
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass  # another run's service directory is still there


def _vm_hwm_mb(pid) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def set_up(args):
    import workloads as wl

    return Service(args) if args.workload == wl.SERVICE else InProcess(args)


def probe_setup_seconds(args) -> float:
    """Median time for a fresh process to be ready to time.

    Each probe's wall time, less the calibrations it waited for, is
    restated in reference seconds with their mean.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--references", str(args.references),
    ]
    if args.cells is not None:
        command += ["--cells", str(args.cells)]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        words = proc.stdout.readline().split()
        ready = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
        if len(words) < 2 or words[0] != "ready" or proc.returncode != 0:
            raise SetupError(f"set-up probe failed (exit {proc.returncode})")
        calibrations = [float(word) for word in words[1:]]
        samples.append(reference_seconds(ready - sum(calibrations),
                                         statistics.mean(calibrations)))
    return statistics.median(samples)


# ----------------------------------------------------------------------
# Timed passes
# ----------------------------------------------------------------------


@dataclass
class Work:
    """Work done in some host time: one cell or one service pass."""

    host_s: float
    cells: int
    accesses: int
    events: int


class Tally:
    """Timed work and correctness over a whole run, in reference seconds.

    In-process passes repeat the same cells: a cell's time is its median
    over the run's passes, and rates are the cells' work over the sum of
    those medians.  Service passes run different input sets of the same
    matrix: rates are their total work over their total time, and a
    cell's time is the median over its (benchmark, mechanism) runs.
    """

    def __init__(self) -> None:
        self.passes: List[Work] = []
        self.cells: Dict[str, List[Work]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: Calibration loop times (host seconds) taken during the run.
        self.calibrations: List[float] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def add_cell(self, cell_id: str, seconds: float, accesses: int, events: int) -> None:
        self.cells.setdefault(cell_id, []).append(Work(seconds, 1, accesses, events))

    def _medians(self) -> List[Work]:
        return [
            Work(statistics.median(w.host_s for w in runs), 1, runs[0].accesses, runs[0].events)
            for runs in self.cells.values()
        ]

    def rate(self, field: str) -> float:
        """Work per reference second."""
        work = self.passes or self._medians()
        return sum(getattr(w, field) for w in work) / sum(w.host_s for w in work)

    def cell_seconds(self) -> List[float]:
        return [w.host_s for w in self._medians()]

    def host_speed(self) -> float:
        """How many times slower than the reference the host ran."""
        return statistics.median(self.calibrations) / REFERENCE_S


@dataclass
class Run:
    """Everything a run measured."""

    tally: Tally = field(default_factory=Tally)
    passes: int = 0
    #: Model counts and cell outcomes of the first pass.
    model: Optional[dict] = None
    outcomes: list = field(default_factory=list)
    #: Traced vs untraced host time, percent, per traced pass.
    overheads: List[float] = field(default_factory=list)
    traced_passes: int = 0
    #: Per-pass service timings (service workload only).
    service: Dict[str, list] = field(default_factory=dict)

    def keep_model(self, outcomes) -> None:
        """Record the first pass's model counts; later ones must agree."""
        import workloads as wl

        counts = wl.model_counts(outcomes)
        if self.model is None:
            self.model, self.outcomes = counts, outcomes
        elif counts != self.model:
            self.tally.fail("model counts differ between passes")


def pass_count(args) -> int:
    """Whole passes that fill ``--seconds`` on the reference machine.

    The count is fixed by the arguments, not by the clock, so every run
    does the same work however busy the host is (up to ``WALL_CAP``).
    """
    import workloads as wl

    return max(1, round(args.seconds / wl.PASS_SECONDS[args.workload]))


def run_pass(setup: InProcess, tally: Tally, tracer=None, parent=None) -> list:
    """Every cell once, checked against its reference digest.

    A calibration runs before the first cell and after each one; a
    cell's reference seconds use the mean of the two around it.
    """
    import workloads as wl

    gc.collect()
    outcomes = []
    before = calibrate()
    for cell in setup.cells:
        tally.attempted += 1
        try:
            outcome = wl.run_cell(cell, time.process_time, tracer, parent)
        except Exception as error:  # a cell that raises is a failed cell
            tally.fail(f"{cell.id}: {type(error).__name__}: {error}")
            before = calibrate()
            continue
        after = calibrate()
        tally.calibrations.append(after)
        outcome.reference_s = reference_seconds(outcome.host_s, (before + after) / 2)
        before = after
        if wl.expected_digest(setup.references, cell) != outcome.digest:
            tally.fail(f"{cell.id}: digest {outcome.digest} != reference")
        outcomes.append(outcome)
    return outcomes


def run_in_process(args, setup: InProcess, tracer) -> Run:
    """Timed passes; with a tracer, pairs of untraced and traced passes."""
    run = Run()
    root = tracer.open_span("run", workload=args.workload, seed=args.seed) if tracer else None
    # A traced pass costs about two untraced ones.
    rounds = pass_count(args) if tracer is None else max(1, pass_count(args) // 3)
    start = time.perf_counter()
    while run.passes < rounds and (
        not run.passes or time.perf_counter() - start <= WALL_CAP * args.seconds
    ):
        outcomes = run_pass(setup, run.tally)
        if tracer is None:
            for o in outcomes:
                run.tally.add_cell(o.cell.key, o.reference_s, o.cell.accesses, o.events)
        else:
            run.keep_model(outcomes)
            tracer.install()
            span = tracer.open_span("pass", root, index=run.passes)
            try:
                traced = run_pass(setup, run.tally, tracer, span)
            finally:
                tracer.close_span(span)
                tracer.uninstall()
            plain_s = sum(o.host_s for o in outcomes)
            run.overheads.append((sum(o.host_s for o in traced) - plain_s) / plain_s * 100.0)
            run.traced_passes += 1
            outcomes = traced
        run.keep_model(outcomes)
        run.passes += 1
    if tracer is not None:
        tracer.close_span(root)
    return run


def run_service(args, setup: Service, tracer) -> Run:
    """Cold then warm submissions of the fig7 matrix, one input set each.

    In a traced run the first pass is traced and the second is the
    untraced baseline for ``trace.overhead_pct``.
    """
    run = Run(service={"submit_s": [], "cold_s": [], "warm_s": [], "bubble": [],
                       "simulated": [], "cached": [], "pass_s": []})
    root = tracer.open_span("run", workload=args.workload, seed=args.seed) if tracer else None
    passes = min(len(setup.passes), max(pass_count(args), 2 if tracer else 1))
    start = time.perf_counter()
    while run.passes < passes and (
        run.passes < (2 if tracer else 1)
        or time.perf_counter() - start <= WALL_CAP * args.seconds
    ):
        traced = tracer is not None and run.passes == 0
        began = time.perf_counter()
        outcomes = service_pass(setup, run, tracer if traced else None, root)
        run.service["pass_s"].append(time.perf_counter() - began)
        run.traced_passes += traced
        if run.model is None:
            run.keep_model(outcomes)
        run.passes += 1
    if tracer is not None:
        tracer.close_span(root)
        pass_s = run.service["pass_s"]
        if len(pass_s) > 1:
            run.overheads.append((pass_s[0] - pass_s[1]) / pass_s[1] * 100.0)
    return run


def service_pass(setup: Service, run: Run, tracer, root) -> list:
    import workloads as wl

    params = setup.passes[run.passes]
    client = setup.client
    tally = run.tally
    span = tracer.open_span("pass", root, index=run.passes) if tracer else None

    def timed(name, call):
        child = tracer.open_span(name, span) if tracer else None
        began = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - began
        if tracer:
            tracer.close_span(child)
        return result, elapsed

    def watch(job):
        labels, summary = {}, None
        for event in client.watch(job):
            if event.get("event") == "cell_done":
                labels[event["key"]] = event["cell"]
            elif event.get("event") == "job_done":
                summary = event
        return labels, summary

    began = time.perf_counter()
    reply, submit_s = timed("service.submit", lambda: client.submit(matrix="fig7", params=params))
    (labels, cold), _ = timed("service.cold_wait", lambda: watch(reply["job"]))
    cold_s = time.perf_counter() - began
    cell_s, cold_reference_s = restate_pass(setup, tally, cold_s)
    warm_reply, warm_s = timed(
        "service.warm", lambda: client.submit(matrix="fig7", params=params, wait=True)
    )
    if tracer:
        tracer.close_span(span)
    warm = warm_reply["summary"]
    cells = cold["cells"]
    tally.attempted += cells
    for name, value in (("submit_s", submit_s), ("cold_s", cold_s), ("warm_s", warm_s),
                        ("bubble", cold["bubble_fraction"]), ("simulated", cold["simulated"]),
                        ("cached", warm["cached"])):
        if value is not None:
            run.service[name].append(value)
    if cold["failed"] or cold["simulated"] != cells:
        tally.fail(f"cold job: {cold['failed']} failed, {cold['simulated']}/{cells} simulated")
    if warm["simulated"] or warm["cached"] != cells or warm["digest"] != cold["digest"]:
        tally.fail("warm resubmission was not fully cache-served with an equal digest")
    outcomes = []
    for key in cold["digests"]:
        record = json.loads((setup.cache / key[:2] / f"{key}.json").read_text())
        cell_id = f"{record['benchmark']}/{record['mechanism']}"
        cell = wl.Cell(cell_id, wl.input_set(record["seed"]), record["benchmark"],
                       record["mechanism"], record["accesses"], [], None)
        core = record["core"]
        outcome = wl.CellOutcome(cell, 0.0, core["mem_cycles"],
                                 wl.digest(record["stats"], core), record["stats"], core)
        if wl.expected_digest(setup.references, cell) != outcome.digest:
            tally.fail(f"{cell_id}: digest {outcome.digest} != reference")
        outcomes.append(outcome)
    if tracer is None:
        tally.passes.append(Work(cold_reference_s, cells, cells * wl.FIG7_ACCESSES,
                                 sum(o.events for o in outcomes)))
        for key, seconds in cell_s.items():
            tally.add_cell(labels.get(key, key), seconds, wl.FIG7_ACCESSES, 0)
    return outcomes


def restate_pass(setup: Service, tally: Tally, cold_s: float):
    """A cold pass's cell walls and its whole time, in reference seconds.

    The worker logged one calibration before announcing each cell; a
    cell's wall is restated with the mean of the calibrations either
    side of it.  The rest of the pass (submission, dispatch, IPC, cache
    writes) is restated with the pass's median calibration, after the
    calibrations' own time is taken out.
    """
    done = [e for e in setup.new_calibrations() if e["event"] == "done"]
    if not done:
        tally.fail("the worker logged no calibration for a cold pass")
        return {}, cold_s
    previous = setup.last_calibration
    calibrations = [previous]
    cell_s = {}
    for entry in done:
        current = entry["calibration_s"]
        cell_s[entry["key"]] = reference_seconds(entry["wall"], (previous + current) / 2)
        calibrations.append(current)
        previous = current
    setup.last_calibration = previous
    tally.calibrations.extend(calibrations[1:])
    rest_s = cold_s - sum(e["wall"] + e["calibration_s"] for e in done)
    rest_s = reference_seconds(max(rest_s, 0.0), statistics.median(calibrations))
    return cell_s, sum(cell_s.values()) + rest_s


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(run: Run, setup_s: float, peak_rss_mb: float) -> dict:
    import workloads as wl

    tally = run.tally
    return {
        "accesses_per_s": (tally.rate("accesses"), "1/s"),
        "events_per_s": (tally.rate("events"), "1/s"),
        "cells_per_s": (tally.rate("cells"), "1/s"),
        "cell_p50_ms": (wl.percentile_ms(tally.cell_seconds(), 50), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(setup, tracer, run: Run) -> dict:
    """Every per-layer metric, for one traced pass; idle layers read 0."""
    from tracer import Layer

    # Layers accumulate over every traced pass; report one pass, like
    # the model counts.  Simulation is deterministic, so the counts of
    # each pass are equal and divide exactly.
    for layer in tracer.layers.values():
        layer.self_s /= run.traced_passes
        layer.calls //= run.traced_passes
        layer.count //= run.traced_passes

    def get(name) -> Layer:
        return tracer.layers.get(name) or Layer(name)

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    def median(name) -> float:
        values = run.service.get(name)
        return statistics.median(values) if values else 0.0

    cores = [o.core for o in run.outcomes if o.core is not None]
    lookouts = [o.lookouts for o in run.outcomes if o.lookouts is not None]
    hits = sum(h for h, _ in lookouts)
    scans = sum(h + m for h, m in lookouts)
    simulated = sum(o.events for o in run.outcomes) if lookouts else 0
    tick = get("system.tick")
    sched = get("sched.schedule")
    refresh = get("refresh.tick")
    skip = get("system.skip_to")
    enqueue = get("system.enqueue")
    metrics = {
        "cpu.run_self_s": (get("cpu.run").self_s, "s"),
        "cpu.step_self_s": (get("cpu.step").self_s, "s"),
        "cpu.fetch_s": (get("cpu.fetch").self_s, "s"),
        "cpu.retire_s": (get("cpu.retire").self_s, "s"),
        "cpu.steps": (get("cpu.step").calls, "count"),
        "cpu.head_block_cycles": (sum(c["head_block_cycles"] for c in cores), "cycles"),
        "cpu.store_stall_cycles": (sum(c["store_stall_cycles"] for c in cores), "cycles"),
        "engine.run_self_s": (get("engine.run").self_s, "s"),
        "engine.step_self_s": (get("engine.step").self_s, "s"),
        "engine.steps": (get("engine.step").calls, "count"),
        "system.init_s": (get("system.init").self_s, "s"),
        "system.tick_self_s": (tick.self_s, "s"),
        "system.ticks": (tick.calls, "count"),
        "system.lookout_s": (get("system.lookout").self_s, "s"),
        "system.lookout_calls": (get("system.lookout").calls, "count"),
        "system.lookout_hit_ratio": (ratio(hits, scans), "ratio"),
        "system.skip_to_s": (skip.self_s, "s"),
        "system.skipped_cycles": (skip.count, "cycles"),
        "system.skip_frac": (ratio(skip.count, simulated), "ratio"),
        "system.enqueue_self_s": (enqueue.self_s, "s"),
        "system.enqueue_attempts": (enqueue.calls, "count"),
        "system.enqueue_reject_frac": (ratio(enqueue.count, enqueue.calls), "ratio"),
        "system.make_access_s": (get("system.make_access").self_s, "s"),
        "sched.schedule_self_s": (sched.self_s, "s"),
        "sched.passes": (sched.calls, "count"),
        # Channel-ticks that ran no schedule pass: elided by the gate or
        # the quiet-window fast path, or taken by a refresh command.
        "sched.gated_frac": (
            ratio(tick.count - sched.calls - refresh.count, tick.count), "ratio"
        ),
        "sched.issue_ratio": (ratio(sched.count, sched.calls), "ratio"),
        "sched.next_wakeup_s": (get("sched.next_wakeup").self_s, "s"),
        "sched.next_wakeup_calls": (get("sched.next_wakeup").calls, "count"),
        "sched.enqueue_s": (get("sched.enqueue").self_s, "s"),
        "sched.completions_s": (get("sched.completions").self_s, "s"),
        "sched.completed": (get("sched.completions").count, "count"),
        "dram.issue_s": (get("dram.issue").self_s, "s"),
        "dram.commands": (get("dram.issue").calls, "count"),
        "refresh.tick_s": (refresh.self_s, "s"),
        "refresh.ticks": (refresh.calls, "count"),
        "refresh.next_wakeup_s": (get("refresh.next_wakeup").self_s, "s"),
        "refresh.refreshes": (refresh.count, "count"),
        "workloads.gen_s": (setup.gen_s, "s"),
        "service.submit_ms": (median("submit_s") * 1000.0, "ms"),
        "service.cold_s": (median("cold_s"), "s"),
        "service.warm_s": (median("warm_s"), "s"),
        "service.bubble_frac": (median("bubble"), "ratio"),
        "service.simulated": (median("simulated"), "count"),
        "service.cached": (median("cached"), "count"),
        "runner.cache_hit_ms": (ratio(median("warm_s") * 1000.0, median("cached")), "ms"),
    }
    for name, value in run.model.items():
        metrics[name] = (value, MODEL_UNITS[name])
    # Traced time is the timed cells (service: the passes); the share no
    # layer's self time (service: no client call) covers is unattributed.
    if run.service:
        timed = [s for s in tracer.spans if s["name"] == "pass"]
        ids = {s["id"] for s in timed}
        covered = sum(s["end"] - s["start"] for s in tracer.spans if s["parent"] in ids)
    else:
        timed = [s for s in tracer.spans if s["name"] == "cell"]
        covered = sum(layer.self_s for layer in tracer.layers.values()) * run.traced_passes
    traced_s = sum(s["end"] - s["start"] for s in timed)
    metrics["trace.overhead_pct"] = (
        statistics.median(run.overheads) if run.overheads else 0.0, "%"
    )
    metrics["trace.unattributed_frac"] = (1.0 - ratio(covered, traced_s), "ratio")
    return metrics


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def benchmark(args) -> int:
    import workloads as wl

    setup_s = None if args.trace else probe_setup_seconds(args)
    print(f"perfbench: {json.dumps(provenance(args), sort_keys=True)}")
    setup = set_up(args)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    try:
        if args.workload == wl.SERVICE:
            run = run_service(args, setup, tracer)
            peak = _own_peak_rss_mb() + setup.peak_rss_mb()
        else:
            run = run_in_process(args, setup, tracer)
            peak = _own_peak_rss_mb()
    finally:
        setup.close()
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans)
        print(f"perfbench: spans written to {os.path.relpath(spans, ROOT)}")
        metrics = per_layer(setup, tracer, run)
    else:
        metrics = end_to_end(run, setup_s, peak)
    tally = run.tally
    print(f"perfbench: {tally.attempted} cells in {run.passes} passes, "
          f"{tally.failed} failed (fail_frac {tally.failed / tally.attempted:g})")
    if not args.trace:
        # The tail is printed but not bounded: it rests on a dozen cells.
        samples = tally.cell_seconds()
        print(f"perfbench: cell_p90_ms {wl.percentile_ms(samples, 90):.6g} ms "
              f"over {len(samples)} cells")
        print(f"perfbench: the host ran {tally.host_speed():.3f}x slower than the "
              f"reference ({len(tally.calibrations)} calibrations); rates are per "
              f"reference second")
    for error in tally.errors:
        print(f"perfbench: FAILED {error}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(args) -> int:
    """Set up exactly as a timed run would, say ``ready``, tear down.

    The ``ready`` line lists every calibration the set-up waited for,
    on the wall clock the caller times it with: one before and one after
    it in this process and, for the service, the worker's.
    """
    first = calibrate(time.perf_counter)
    setup = set_up(args)
    try:
        calibrations = [first, *setup.setup_calibrations, calibrate(time.perf_counter)]
        print("ready", *map(repr, calibrations), flush=True)
    finally:
        setup.close()
    return 0


def record(args) -> int:
    """Record reference digests with the sequential engine and oracle."""
    import workloads as wl

    os.environ.update(REPRO_FASTFWD="0", REPRO_ORACLE="1")
    names = [args.workload] if args.workload else list(wl.IN_PROCESS)
    args.references.mkdir(parents=True, exist_ok=True)
    for name in names:
        inputs = {}
        for input_set in range(wl.INPUT_SETS[name]):
            inputs[str(input_set)] = {
                cell.id: wl.run_cell(cell, time.process_time).digest
                for cell in wl.reference_cells(name, input_set)
            }
            print(f"recorded {name} input set {input_set}: {len(inputs[str(input_set)])} cells",
                  flush=True)
        payload = {
            "workload": name,
            "recorded_with": {"REPRO_FASTFWD": "0", "REPRO_ORACLE": "1"},
            "inputs": inputs,
        }
        path = args.references / f"{name}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; their result lines at the end."""
    import workloads as wl

    results = {}
    status = 0
    for name in wl.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--references", str(args.references)]
        if args.cells is not None:
            command += ["--cells", str(args.cells)]
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cells", type=int, default=None,
                        help="run only the first N cells of each pass (quick checks)")
    parser.add_argument("--references", type=Path, default=HERE / "references")
    parser.add_argument("--record", action="store_true",
                        help="re-record the reference digests and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        check_environment(timed=not args.record)
        import workloads as wl

        if args.record:
            return record(args)
        if args.workload == "all":
            return run_all(args)
        if args.workload not in wl.WORKLOADS:
            raise SetupError(f"unknown workload {args.workload!r}; available: {wl.WORKLOADS}")
        if args.setup_probe:
            return setup_probe(args)
        return benchmark(args)
    except SetupError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
