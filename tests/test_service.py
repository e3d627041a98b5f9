"""Tests for the job service (DESIGN.md §15).

Unit layer: matrix expansion, wire round-trips and digests, with no
processes involved.  Integration layer: a real ``repro-serve`` server
subprocess with real worker subprocesses, exercising the acceptance
properties one by one — warm resubmission simulates nothing,
preempted cells migrate and resume byte-identically, higher-priority
jobs evict running work, and a single-worker server completes a fixed
matrix in a reproducible order with reproducible digests.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.experiments import common, generations, runner
from repro.service.client import ServiceClient
from repro.service.jobs import (
    expand_submission,
    result_digest,
    sim_cell_spec,
    spec_from_wire,
)
from repro.service.pool import MAX_ATTEMPTS, WorkerPool
from repro.settings import settings
from repro.sim.config import baseline_config

N = 300
SEED = 1


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_PROGRESS", "0")
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CHECKPOINT", raising=False)
    monkeypatch.delenv("REPRO_SCALE", raising=False)


def _cells(benches=("swim", "gcc"), mechs=("FCFS", "Burst_TH"), n=N):
    cfg = baseline_config().to_dict()
    return [
        {"kind": "sim", "benchmark": b, "mechanism": m,
         "accesses": n, "seed": SEED, "config": cfg}
        for b in benches for m in mechs
    ]


# ----------------------------------------------------------------------
# Unit: expansion, wire format, digests
# ----------------------------------------------------------------------


def test_expand_fig7_matrix_subset():
    specs = expand_submission({
        "matrix": "fig7",
        "params": {
            "benchmarks": ["swim", "mcf"],
            "mechanisms": ["FCFS", "Burst_TH"],
            "accesses": N,
        },
    })
    assert len(specs) == 4
    assert len({spec.key for spec in specs}) == 4
    # Expansion order is benchmark-major: the dispatch tie-break.
    assert [spec.label for spec in specs] == [
        "swim/FCFS", "swim/Burst_TH", "mcf/FCFS", "mcf/Burst_TH",
    ]
    # The service's matrix is the experiments' own cell list.
    cells = common.matrix(["swim", "mcf"], ["FCFS", "Burst_TH"], N)
    assert [spec.key for spec in specs] == [
        runner.cell_key(*cell) for cell in cells.values()
    ]


def test_expand_generations():
    gens = expand_submission({
        "matrix": "generations",
        "params": {
            "benchmarks": ["swim"], "mechanisms": ["Burst_TH"],
            "accesses": N,
        },
    })
    from repro.dram.timing import GENERATIONS

    assert len(gens) == len(GENERATIONS)
    names = {spec.payload["config"]["timing"]["name"] for spec in gens}
    assert len(names) == len(GENERATIONS)
    cells = generations.cells(["swim"], ["Burst_TH"], N)
    assert [spec.key for spec in gens] == [
        runner.cell_key(*cell) for cell in cells.values()
    ]


def test_expand_rejects_malformed_submissions():
    with pytest.raises(ServiceError):
        expand_submission({})  # neither matrix nor cells
    with pytest.raises(ServiceError):
        expand_submission({"matrix": "fig7", "cells": _cells()})  # both
    with pytest.raises(ServiceError):
        expand_submission({"matrix": "no_such_matrix"})
    with pytest.raises(ServiceError):
        expand_submission({"cells": []})
    with pytest.raises(ServiceError):
        expand_submission({"cells": "fig7"})
    with pytest.raises(ServiceError):
        expand_submission(
            {"matrix": "fig7", "params": {"mechanisms": ["Bogus"]}}
        )
    with pytest.raises(ServiceError):
        expand_submission(
            {"matrix": "fig7", "params": {"benchmarks": ["bogus"]}}
        )
    with pytest.raises(ServiceError):
        spec_from_wire({"kind": "bogus"})


def test_wire_kind_is_optional_and_only_sim():
    """A cell may carry ``"kind": "sim"`` or no kind at all; any other
    kind is refused, and so is a ``fleet`` matrix."""
    bare = {k: v for k, v in _cells()[0].items() if k != "kind"}
    tagged = dict(bare, kind="sim")
    assert expand_submission({"cells": [bare]})[0].key == (
        expand_submission({"cells": [tagged]})[0].key
    )
    with pytest.raises(ServiceError):
        expand_submission({"cells": [dict(bare, kind="fleet")]})
    with pytest.raises(ServiceError):
        expand_submission({"matrix": "fleet"})


#: Malformed payloads that used to escape as ValueError / TypeError /
#: AttributeError (dropping the client connection) or, for a
#: zero-access wire cell, be cached as a 1-cycle, 0-read result.
MALFORMED = {
    "params-not-object": {"matrix": "fig7", "params": [1]},
    "seed-not-int": {"matrix": "fig7", "params": {"seed": "x"}},
    "seed-bool": {"matrix": "fig7", "params": {"seed": True}},
    "accesses-not-int": {"matrix": "fig7", "params": {"accesses": "abc"}},
    "accesses-float": {"matrix": "generations", "params": {"accesses": 4.5}},
    "accesses-zero": {"matrix": "fig7", "params": {"accesses": 0}},
    "benchmarks-not-list": {"matrix": "fig7", "params": {"benchmarks": 5}},
    "mechanisms-not-strings": {
        "matrix": "fig7", "params": {"mechanisms": ["Burst_TH", 3]}
    },
    "cell-not-object": {"cells": [5]},
    "sim-cell-zero-accesses": {"cells": [dict(_cells()[0], accesses=0)]},
    "sim-cell-seed-string": {"cells": [dict(_cells()[0], seed="1")]},
}


@pytest.mark.parametrize("request_", MALFORMED.values(), ids=MALFORMED)
def test_expand_rejects_malformed_payloads(request_):
    with pytest.raises(ServiceError):
        expand_submission(request_)


def test_submission_dedupes_by_key():
    cells = _cells()
    specs = expand_submission({"cells": cells + cells})
    assert len(specs) == len(cells)


def test_sim_spec_wire_round_trip_and_cache_key():
    cfg = baseline_config()
    spec = sim_cell_spec("swim", "Burst_TH", N, SEED, cfg)
    again = spec_from_wire(spec.to_wire())
    assert again.key == spec.key
    # The service key IS the runner's cache key: dedupe against
    # .repro-cache/ and the sequential CLI is exact, not approximate.
    assert spec.key == runner.cell_key("swim", "Burst_TH", N, SEED, cfg)


def test_result_digest_is_order_insensitive():
    assert result_digest({"a": 1, "b": 2}) == result_digest({"b": 2, "a": 1})
    assert result_digest({"a": 1}) != result_digest({"a": 2})


# ----------------------------------------------------------------------
# Integration: a real server with real workers
# ----------------------------------------------------------------------


class Server:
    """Run one repro-serve server subprocess for a test."""

    def __init__(self, tmp_path, workers=2, progress_every=20_000,
                 cache_dir=None):
        self.socket = str(tmp_path / "serve.sock")
        env = dict(os.environ)
        src = str(Path(runner.__file__).resolve().parents[2])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        if cache_dir is not None:
            env["REPRO_CACHE_DIR"] = str(cache_dir)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.cli", "start",
             "--socket", self.socket, "--workers", str(workers),
             "--progress-every", str(progress_every)],
            env=env,
        )
        self.client = ServiceClient(self.socket)
        self.client.wait_ready()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            if self.proc.poll() is None:
                self.client.shutdown()
                self.proc.wait(timeout=60)
        except (ServiceError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def test_server_dedupe(tmp_path):
    cells = _cells()
    with Server(tmp_path) as server:
        first = server.client.submit(cells=cells, wait=True)["summary"]
        assert first["simulated"] == len(cells)
        assert first["failed"] == 0
        assert len(first["completion_order"]) == len(cells)

        # Warm resubmission: 100% served from the store, 0 simulated,
        # and the job digest is unchanged — cached results are
        # byte-identical to the fresh simulations.
        warm = server.client.submit(cells=cells, wait=True)["summary"]
        assert warm["simulated"] == 0
        assert warm["cached"] == len(cells)
        assert warm["digest"] == first["digest"]
        assert warm["events_per_sec"] is None  # no simulation window
        # The summary echoes the settings the cells ran under: the
        # server's own, with checkpointing on.
        assert warm["settings"] == dict(
            settings().to_wire(), checkpoint=True
        )

    # The server's store is the runner's store: a sequential run_cells
    # over the same cells simulates nothing.
    from repro.service.jobs import sim_cell_from_wire

    _, report = runner.run_cells(
        [sim_cell_from_wire(c) for c in cells], jobs=1, memo={}
    )
    assert report.executed == 0
    assert report.cached_disk == len(cells)


def test_preempted_cell_migrates_and_resumes(tmp_path):
    """Satellite 3: SIGTERM a worker mid-cell; the cell must resume
    from its snapshot on another worker and the final stats must be
    byte-identical to an uninterrupted in-process run."""
    cells = _cells(benches=("swim", "mcf"), mechs=("Burst_TH",), n=80_000)
    with Server(tmp_path) as server:
        job = server.client.submit(cells=cells)["job"]
        # Preempt only once every cell has streamed a progress event:
        # by then each worker is inside its simulation loop with the
        # checkpoint handler installed, so the SIGTERM snapshot is
        # guaranteed to land mid-run (cycle > 0) rather than racing
        # worker startup and restarting the cell from scratch.
        watch = server.client.watch(job)
        events = []
        progressed = set()
        for event in watch:
            events.append(event)
            if event["event"] == "cell_progress":
                progressed.add(event["key"])
                if len(progressed) == len(cells):
                    break
            elif event["event"] == "job_done":  # pragma: no cover
                pytest.fail("job finished before any progress event")
        preempted = server.client.preempt()
        events.extend(watch)
        done = [e for e in events if e["event"] == "job_done"][0]
        kinds = [e["event"] for e in events]
        assert "cell_preempted" in kinds
        assert done["failed"] == 0
        assert done["preemptions"] >= 1
        # The preempted cell resumed mid-run instead of restarting.
        key = preempted["key"]
        assert done["resumed"].get(key, 0) > 0
        migrated_digest = done["digests"][key]

    assert _uninterrupted_digest(cells, key) == migrated_digest


def _uninterrupted_digest(cells, key):
    """Digest of the cell with ``key``, run in this process uncached."""
    cfg = baseline_config()
    for cell in cells:
        args = (cell["benchmark"], cell["mechanism"], cell["accesses"],
                cell["seed"], cfg)
        if runner.cell_key(*args) == key:
            run = runner.execute_cell(args)
            return result_digest({
                "key": key,
                "stats": run.stats.to_dict(),
                "core": run.core.to_dict(),
            })
    pytest.fail(f"{key} not in the submitted cells")


def _kill_started_workers(server, job, kills):
    """SIGKILL the worker of each of the first ``kills`` cell starts.

    Returns the job's full event stream, ending at ``job_done``.
    """
    events = []
    for event in server.client.watch(job):
        events.append(event)
        if event["event"] == "cell_started" and kills:
            kills -= 1
            pids = {w["index"]: w["pid"]
                    for w in server.client.status()["workers"]}
            os.kill(pids[event["worker"]], signal.SIGKILL)
    return events


def test_worker_killed_once_retries_cell_identically(tmp_path):
    """A crashed worker's cell is retried on a fresh worker and its
    result is byte-identical to an uninterrupted run."""
    cells = _cells(benches=("swim",), mechs=("Burst_TH",), n=20_000)
    with Server(tmp_path, workers=1) as server:
        job = server.client.submit(cells=cells)["job"]
        events = _kill_started_workers(server, job, kills=1)
    starts = [e for e in events if e["event"] == "cell_started"]
    done = events[-1]
    assert len(starts) == 2
    assert starts[0]["worker"] != starts[1]["worker"]
    assert done["failed"] == 0
    assert done["simulated"] == 1
    [(key, digest)] = done["digests"].items()
    assert _uninterrupted_digest(cells, key) == digest


def test_worker_killed_every_attempt_fails_cell(tmp_path):
    """A cell whose worker dies on every attempt fails after
    ``MAX_ATTEMPTS`` and the server keeps serving."""
    cells = _cells(benches=("swim",), mechs=("Burst_TH",), n=20_000)
    with Server(tmp_path, workers=1) as server:
        job = server.client.submit(cells=cells)["job"]
        events = _kill_started_workers(server, job, kills=MAX_ATTEMPTS)
        starts = [e for e in events if e["event"] == "cell_started"]
        [failed] = [e for e in events if e["event"] == "cell_failed"]
        done = events[-1]
        assert len(starts) == MAX_ATTEMPTS
        assert failed["error"] == (
            f"worker exited {-signal.SIGKILL} (attempt {MAX_ATTEMPTS})"
        )
        assert done["failed"] == 1
        assert done["simulated"] == 0
        assert done["errors"] == {failed["key"]: failed["error"]}
        assert server.client.ping()["ok"]


def test_priority_preempts_running_work(tmp_path):
    """A higher-priority job arriving with no idle worker evicts the
    lowest-priority running cell and finishes first."""
    with Server(tmp_path, workers=1) as server:
        long_job = server.client.submit(
            cells=_cells(benches=("swim",), mechs=("Burst_TH",), n=80_000)
        )["job"]
        # Wait for a progress event so the eviction snapshots a cell
        # that is demonstrably mid-run (checkpoint handler installed).
        for event in server.client.watch(long_job):
            if event["event"] == "cell_progress":
                break
            assert event["event"] != "job_done", "cell finished too fast"
        urgent = server.client.submit(
            cells=_cells(benches=("gcc",), mechs=("FCFS",), n=N),
            priority=5, wait=True,
        )["summary"]
        assert urgent["failed"] == 0
        long_summary = server.client.wait(long_job)
        assert long_summary["failed"] == 0
        assert long_summary["preemptions"] >= 1
        assert long_summary["resumed"]  # resumed, not restarted


def test_single_worker_completion_is_deterministic(tmp_path):
    """Satellite 6: fixed seed + one worker => reproducible completion
    order and result digests across fresh server instances."""
    request = {
        "matrix": "fig7",
        "params": {
            "benchmarks": ["swim", "gcc"],
            "mechanisms": ["FCFS", "Burst_TH"],
            "accesses": N,
            "seed": SEED,
        },
    }

    def run_once(tag):
        cache = tmp_path / f"cache-{tag}"
        with Server(tmp_path, workers=1, cache_dir=cache) as server:
            reply = server.client.submit(
                matrix=request["matrix"], params=request["params"],
                wait=True,
            )
            return reply["summary"]

    a = run_once("a")
    b = run_once("b")
    assert a["simulated"] == b["simulated"] == 4
    assert a["completion_order"] == b["completion_order"]
    assert a["digests"] == b["digests"]
    assert a["digest"] == b["digest"]


def test_bad_requests_get_typed_errors(tmp_path):
    with Server(tmp_path, workers=1) as server:
        with pytest.raises(ServiceError):
            server.client.submit(matrix="nope")
        with pytest.raises(ServiceError):
            server.client.wait("job-999")
        with pytest.raises(ServiceError):
            server.client.request({"op": "frobnicate"})
        with pytest.raises(ServiceError):
            server.client.preempt()  # nothing running


def test_bad_params_payload_gets_reply_and_server_survives(tmp_path):
    """A malformed ``params`` payload, a cell whose config fails
    validation with a ConfigError, or a non-integer ``priority`` (which
    used to drop the connection, or be coerced to 1) is answered
    ``ok: false`` on the same connection; the server keeps serving."""
    bad_config = dict(_cells()[0]["config"], sources=0)
    requests = [
        {"op": "submit", "matrix": "fig7", "params": params}
        for params in ({"seed": "x"}, [1], {"accesses": 0})
    ] + [{"op": "submit", "cells": [dict(_cells()[0], config=bad_config)]}]
    requests += [
        {"op": "submit", "cells": _cells()[:1], "priority": priority}
        for priority in ("high", 1.7, True)
    ]
    with Server(tmp_path, workers=1) as server:
        for request in requests:
            with server.client._connect() as sock:
                handle = sock.makefile("rw", encoding="utf-8", newline="\n")
                handle.write(json.dumps(request) + "\n")
                handle.flush()
                reply = json.loads(handle.readline())
            assert reply["ok"] is False
            assert "must" in reply["error"], reply
        assert server.client.ping()["ok"] is True


# ----------------------------------------------------------------------
# Pipelined dispatch: an in-process pool, every event in one order
# ----------------------------------------------------------------------


def _run_pool(cells, workers=1, react=None, on_done=None, **options):
    """Run ``(wire cell, sort key)`` pairs on a fresh in-process
    :class:`WorkerPool` until every task it holds is done.

    Returns the pool, its log — ``(event, key, worker index)`` per
    ``cell_started``, ``cell_preempted`` and ``cell_done``, in the
    order the pool reported them — and each key's ``done`` event.
    ``react(pool, name, task, worker)`` sees each event as it happens.
    """
    log, results, errors = [], {}, []

    async def main():
        finished = asyncio.Event()

        def event(task, worker, name, **fields):
            if name == "cell_progress":
                return
            log.append((name, task.spec.key, worker.index))
            if react is not None:
                react(pool, name, task, worker)

        def done(task, worker, event):
            log.append(("cell_done", task.spec.key, worker.index))
            results[task.spec.key] = event
            if on_done is not None:
                on_done()
            if len(results) == len(pool.tasks):
                finished.set()

        def failed(task, error):
            errors.append(error)
            finished.set()

        pool = WorkerPool(workers, done, failed, event, **options)
        for cell, sort_key in cells:
            pool.submit(spec_from_wire(cell), sort_key)
        try:
            await pool.start()
            await asyncio.wait_for(finished.wait(), timeout=300)
        finally:
            await pool.shutdown()
        return pool

    pool = asyncio.run(main())
    assert errors == []
    return pool, log, results


def _keys(cells):
    return [spec_from_wire(cell).key for cell in cells]


def _starts(log):
    return [key for name, key, _ in log if name == "cell_started"]


def _submit_later(pool, cell, priority, seq):
    """What the job server does for a submission: queue, then preempt.

    Called from a pool callback, so the dispatch that follows every
    worker event sends it.
    """
    pool.submit(spec_from_wire(cell), (-priority, seq, 0))
    pool.preempt_lowest(priority)


def test_worker_killed_holding_prefetched_cell_spends_no_attempt():
    """SIGKILL a worker while it runs one cell and holds the next: the
    running cell is retried (one attempt spent), the prefetched one is
    requeued as it was (none spent), and both finish once with the
    digests of uninterrupted runs."""
    cells = _cells(benches=("swim", "gcc"), mechs=("Burst_TH",), n=3000)
    running, prefetched = _keys(cells)
    kills = []

    def react(pool, name, task, worker):
        if name == "cell_started" and not kills:
            assert worker.sent == [prefetched]
            kills.append(worker.index)
            os.kill(worker.proc.pid, signal.SIGKILL)

    pool, log, results = _run_pool(
        [(cell, (0, 0, i)) for i, cell in enumerate(cells)],
        react=react,
    )
    assert _starts(log) == [running, running, prefetched]
    assert [key for name, key, _ in log if name == "cell_done"] == [
        running, prefetched
    ]
    assert pool.tasks[running].attempts == 1
    assert pool.tasks[prefetched].attempts == 0
    for key, event in results.items():
        digest = result_digest(
            {"key": key, "stats": event["stats"], "core": event["core"]}
        )
        assert digest == _uninterrupted_digest(cells, key)


def test_priority_submission_starts_before_prefetched_cell():
    """One worker runs a long low-priority cell and holds a prefetched
    one; a priority-5 cell submitted meanwhile starts before the
    prefetched cell, which starts once."""
    low = _cells(benches=("swim",), mechs=("Burst_TH",), n=20_000)
    low += _cells(benches=("gcc",), mechs=("FCFS",))
    urgent = _cells(benches=("mcf",), mechs=("FCFS",))[0]
    _, prefetched = _keys(low)
    (urgent_key,) = _keys([urgent])

    def react(pool, name, task, worker):
        if name == "cell_started" and len(pool.tasks) == 2:
            assert worker.sent == [prefetched]
            _submit_later(pool, urgent, priority=5, seq=2)

    _, log, _ = _run_pool(
        [(cell, (0, 1, i)) for i, cell in enumerate(low)], react=react
    )
    starts = _starts(log)
    assert starts.index(urgent_key) < starts.index(prefetched)
    assert starts.count(prefetched) == 1


def test_preempting_submission_is_not_prefetched_behind_lower_priority():
    """Two workers run priority-0 cells and a priority-5 cell arrives:
    one worker is preempted, and the urgent cell waits for its
    replacement, which runs it before the preempted cell, instead of
    queueing behind the other worker's running cell."""
    long_cells = _cells(benches=("swim",), mechs=("Burst_TH",), n=40_000)
    long_cells += _cells(benches=("gcc",), mechs=("Burst_TH",), n=20_000)
    urgent = _cells(benches=("mcf",), mechs=("FCFS",))[0]
    kept, preempted = _keys(long_cells)
    (urgent_key,) = _keys([urgent])

    def react(pool, name, task, worker):
        running = [w for w in pool.workers.values() if w.current]
        if name == "cell_started" and len(pool.tasks) == len(running) == 2:
            _submit_later(pool, urgent, priority=5, seq=2)

    _, log, _ = _run_pool(
        [(cell, (0, 1, i)) for i, cell in enumerate(long_cells)],
        workers=2, react=react,
    )
    assert ("cell_preempted", preempted) in [entry[:2] for entry in log]
    starts = _starts(log)
    assert sorted(starts[:2]) == sorted([kept, preempted])
    assert starts[2:] == [urgent_key, preempted]


def test_recalled_cell_starts_once_after_the_cell_that_outranks_it():
    """No preemption (the running cell has priority 5 too): the pool
    recalls the outranked prefetched cell, the worker drops it
    unstarted, and every cell starts exactly once."""
    long_cell = _cells(benches=("swim",), mechs=("Burst_TH",), n=20_000)[0]
    low = _cells(benches=("gcc",), mechs=("FCFS",))[0]
    urgent = _cells(benches=("mcf",), mechs=("FCFS",))[0]
    long_key, low_key, urgent_key = _keys([long_cell, low, urgent])

    def react(pool, name, task, worker):
        if name == "cell_started" and len(pool.tasks) == 2:
            assert worker.sent == [low_key]
            _submit_later(pool, urgent, priority=5, seq=3)

    _, log, results = _run_pool(
        [(long_cell, (-5, 1, 0)), (low, (0, 2, 0))], react=react,
    )
    assert _starts(log) == [long_key, urgent_key, low_key]
    assert len(_starts(log)) == len(results) == 3
    assert not [entry for entry in log if entry[0] == "cell_preempted"]


def test_idle_worker_recalls_a_cell_stranded_behind_a_running_one():
    """With nothing queued, a worker that goes idle takes back the
    cell another worker holds behind a long one."""
    long_cell = _cells(benches=("swim",), mechs=("Burst_TH",), n=20_000)[0]
    short = _cells(benches=("gcc",), mechs=("FCFS", "Burst_TH"))
    keys = _keys([long_cell] + short)
    _, log, _ = _run_pool(
        [(cell, (0, 0, i)) for i, cell in enumerate([long_cell] + short)],
        workers=2,
    )
    done = [key for name, key, _ in log if name == "cell_done"]
    assert done[-1] == keys[0]
    [long_worker] = [w for name, key, w in log
                     if name == "cell_started" and key == keys[0]]
    assert len(_starts(log)) == 3
    assert all(w != long_worker for name, key, w in log
               if name == "cell_started" and key != keys[0])


def test_slow_bookkeeping_does_not_stall_the_worker():
    """The worker simulates its prefetched cell while the pool's
    ``on_done`` is busy: 50 ms of bookkeeping per cell adds far less
    than 50 ms per cell to the run."""
    cells = _cells(benches=("swim", "gcc", "mcf"), n=1500)
    stamps = []

    def react(pool, name, task, worker):
        if name == "cell_started" and not stamps:
            stamps.append(time.monotonic())

    def on_done():
        stamps.append(time.monotonic())
        time.sleep(0.05)

    _, _, results = _run_pool(
        [(cell, (0, 0, i)) for i, cell in enumerate(cells)],
        react=react, on_done=on_done,
    )
    extra = stamps[-1] - stamps[0] - sum(e["wall"] for e in results.values())
    assert extra < len(cells) * 0.05 / 2, f"{extra:.3f} s between cells"


def test_worker_inbox_starts_or_recalls_each_cell_never_both(monkeypatch):
    """Stress the worker's reader thread: recalls race the main thread
    starting cells, and each cell is started or recalled exactly once."""
    from repro.service import workers

    events = []
    monkeypatch.setattr(workers, "_emit", events.append)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    read_fd, write_fd = os.pipe()
    try:
        inbox = workers._Inbox(read_fd)
        keys = [f"cell-{i}" for i in range(2000)]

        def send():
            with os.fdopen(write_fd, "w") as pipe:
                for key in keys:
                    run = {"op": "run", "cell": {"kind": "sim", "key": key}}
                    pipe.write(json.dumps(run) + "\n")
                    if int(key[5:]) % 2:
                        pipe.write(json.dumps({"op": "recall", "key": key}) + "\n")
                    pipe.flush()

        sender = threading.Thread(target=send)
        sender.start()
        taken = []
        while (request := inbox.next()) is not None:
            taken.append(request["cell"]["key"])
        sender.join(timeout=60)
        assert not sender.is_alive()
    finally:
        sys.setswitchinterval(switch)
        os.close(read_fd)
    started = [e["key"] for e in events if e["event"] == "started"]
    recalled = [e["key"] for e in events if e["event"] == "recalled"]
    assert started == taken
    assert sorted(started + recalled) == sorted(keys)
    assert recalled  # some recalls won their race
