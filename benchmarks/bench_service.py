"""Job-service throughput: sharded, preempted, then cache-served fig7.

The E2E acceptance demo for DESIGN.md §15, timed: a 2-worker server
cold-runs the quarter-scale fig7 matrix while one worker is
SIGTERM-preempted mid-run, the warm resubmission must be 100%
cache-served (0 simulated), and spot-checked cells — including the
preempted one — must be byte-identical to fresh uninterrupted
in-process simulations.  ``results/BENCH_service.json`` records the
throughput (cells/sec, simulated events/sec) and the measured bubble
fraction (idle worker-seconds over pool x window), which must stay
under 0.25, with the preemption cost included.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

from benchmarks.conftest import run_once
from repro.errors import ServiceError
from repro.experiments import common, runner
from repro.service.client import ServiceClient
from repro.service.jobs import result_digest, sim_cell_from_wire
from repro.sim.config import baseline_config
from repro.workloads.spec2000 import benchmark_names

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

WORKERS = 2
BUBBLE_BUDGET = 0.25


def _quarter_accesses() -> int:
    """Quarter-scale fig7 cells, honouring the session's REPRO_SCALE."""
    return max(500, common.scaled_accesses(None) // 4)


def _start_server(tmp_path, cache_dir):
    socket = str(tmp_path / "bench-serve.sock")
    env = dict(os.environ)
    src = str(pathlib.Path(runner.__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    # The bench computes accesses itself; the server must not scale
    # the explicit value a second time.
    env["REPRO_SCALE"] = "1.0"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service.cli", "start",
         "--socket", socket, "--workers", str(WORKERS)],
        env=env,
    )
    client = ServiceClient(socket)
    client.wait_ready()
    return proc, client


def _submit_with_preemption(client, params):
    """Cold run: submit fig7, SIGTERM one worker mid-run, wait."""
    job = client.submit(matrix="fig7", params=params)["job"]
    preempted_key = None
    deadline = time.monotonic() + 60
    while preempted_key is None and time.monotonic() < deadline:
        try:
            preempted_key = client.preempt()["key"]
        except ServiceError:
            time.sleep(0.05)  # between cells; try again
    summary = client.wait(job)
    return summary, preempted_key


def test_service_throughput(benchmark, tmp_path):
    accesses = _quarter_accesses()
    params = {"accesses": accesses, "seed": common.default_seed()}
    cache_dir = tmp_path / "cache"
    proc, client = _start_server(tmp_path, cache_dir)
    try:
        cold, preempted_key = _submit_with_preemption(client, params)
        # Timed region: the warm resubmission — pure dedupe overhead.
        warm = run_once(
            benchmark,
            lambda: client.submit(matrix="fig7", params=params, wait=True),
        )["summary"]
    finally:
        try:
            client.shutdown()
            proc.wait(timeout=60)
        except (ServiceError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()

    cells = cold["cells"]
    assert cells == len(benchmark_names()) * len(common.MECHANISMS)
    assert cold["failed"] == 0
    assert cold["simulated"] == cells
    assert cold["preemptions"] >= 1, "no worker was preempted mid-run"
    assert preempted_key is not None

    # Warm resubmission: 100% cache-served, zero simulated, and the
    # job digest (over every per-cell result digest) is unchanged.
    assert warm["simulated"] == 0
    assert warm["cached"] == cells
    assert warm["digest"] == cold["digest"]

    # The bubble bound, preemption cost included.
    bubble = cold["bubble_fraction"]
    assert bubble is not None and bubble < BUBBLE_BUDGET, (
        f"bubble fraction {bubble:.3f} exceeds {BUBBLE_BUDGET}"
    )

    # Byte-identity spot check: the preempted cell plus the first and
    # last completed cells, re-simulated fresh (no cache, no
    # checkpoints) in this process, must reproduce the service's
    # digests exactly.
    cfg = baseline_config()
    by_key = {}
    for bench in benchmark_names():
        for mech in common.MECHANISMS:
            cell = (bench, mech, accesses, params["seed"], cfg)
            by_key[runner.cell_key(*cell)] = cell
    order = cold["completion_order"]
    checked = 0
    for key in dict.fromkeys([preempted_key, order[0], order[-1]]):
        run = runner.execute_cell(by_key[key], checkpoint=False)
        fresh = result_digest({
            "key": key,
            "stats": run.stats.to_dict(),
            "core": run.core.to_dict(),
        })
        assert fresh == cold["digests"][key], (
            f"service result for {by_key[key][:2]} is not byte-identical "
            f"to a fresh sequential run"
        )
        checked += 1

    # The service's store is the sequential runner's store: replaying
    # the matrix through run_cells simulates nothing.
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    try:
        _, report = runner.run_cells(
            list(by_key.values()), jobs=1, memo={}, progress=False
        )
    finally:
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous
    assert report.executed == 0
    assert report.cached_disk == cells

    payload = {
        "workers": WORKERS,
        "cells": cells,
        "accesses": accesses,
        "cold": {
            "elapsed_sec": round(cold["elapsed"], 3),
            "cells_per_sec": round(cold["cells_per_sec"], 3),
            "events_per_sec": round(cold["events_per_sec"], 1),
            "bubble_fraction": round(bubble, 4),
            "preemptions": cold["preemptions"],
            "resumed_cells": len(cold["resumed"]),
        },
        "warm": {
            "elapsed_sec": round(warm["elapsed"], 3),
            "cells_per_sec": round(warm["cells_per_sec"], 3),
            "simulated": warm["simulated"],
            "cached": warm["cached"],
        },
        "byte_identity_spot_checks": checked,
        "sequential_replay_simulated": report.executed,
    }
    path = RESULTS_DIR / "BENCH_service.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{json.dumps(payload, indent=2)}\n[saved to {path}]")

    lines = [
        "Job service: quarter-scale fig7 on "
        f"{WORKERS} workers ({cells} cells x {accesses} accesses)",
        f"  cold: {cold['elapsed']:.1f}s, "
        f"{cold['cells_per_sec']:.1f} cells/s, "
        f"{cold['events_per_sec']:.0f} events/s, "
        f"bubble {bubble:.3f}, {cold['preemptions']} preemption(s)",
        f"  warm: {warm['elapsed']:.2f}s, {warm['cached']} cached, "
        f"{warm['simulated']} simulated",
        f"  byte-identity: {checked} spot checks ok; "
        f"sequential replay simulated {report.executed}",
    ]
    (RESULTS_DIR / "service.txt").write_text("\n".join(lines) + "\n")
