"""Next-event engine speedup: fast vs sequential, byte-identical.

Not a paper figure — this is the guard-rail of the next-event engine
rewrite (DESIGN.md §9).  Two traffic shapes bound the engine:

* **fig7 matrix** (closed loop) — every benchmark x mechanism cell is
  simulated twice from scratch, once with the original strictly
  sequential loop (``REPRO_FASTFWD=0``) and once with the next-event
  run loops (``REPRO_FASTFWD=1``, the default).  The matrix keeps the
  memory system saturated (~half of all cycles issue a command), so
  there is little dead time to skip: the gate here is *byte-identical
  and not slower*.
* **sparse open-loop stream** — Figure-1-style spaced requests with
  100-300 idle cycles between arrivals, the regime the next-event
  engine exists for.  Here the leap over dead cycles must pay off
  outright: *byte-identical and at least 2x the events/sec*.

Timing uses ``time.process_time`` (CPU seconds) with the two modes
interleaved round-robin and best-of-N taken per mode, because
wall-clock on shared CI runners varies by +/-30% run to run — far more
than the effect being measured on the saturated matrix.

The measured events/sec for both modes and both scenarios land in
``results/BENCH_engine.json`` so CI can track the speedup over time.
"""

import json
import os
import pathlib
import random
import time

from repro.experiments.common import clear_cache, matrix, resolve

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Interleaved timing rounds per scenario (best-of per mode).
MATRIX_ROUNDS = 2
SPARSE_ROUNDS = 3


def _matrix_snapshot(runs):
    """Byte-comparable view of a matrix: every stat of every cell."""
    return {
        pair: (stats.to_dict(), result.to_dict())
        for pair, (stats, result) in sorted(runs.items())
    }


def _run_matrix_once():
    """Simulate the fig7 matrix from scratch, in this process."""
    clear_cache()
    started = time.process_time()
    runs = resolve(matrix(), jobs=1)
    elapsed = time.process_time() - started
    events = sum(result.mem_cycles for _, result in runs.values())
    return elapsed, _matrix_snapshot(runs), events


def _sparse_driver():
    """Figure-1-style open-loop stream: long gaps between arrivals."""
    from repro.controller.access import AccessType
    from repro.controller.system import MemorySystem
    from repro.sim.config import baseline_config
    from repro.sim.engine import OpenLoopDriver

    rng = random.Random(7)
    system = MemorySystem(baseline_config(), "Burst_TH")
    cycle = 0
    requests = []
    for _ in range(3000):
        cycle += rng.randint(100, 300)
        address = rng.randrange(1 << 28) & ~0x3F
        op = AccessType.WRITE if rng.random() < 0.3 else AccessType.READ
        requests.append((cycle, op, address))
    return OpenLoopDriver(system, requests)


def _run_sparse_once():
    """Drive the sparse stream to drain; events are memory cycles."""
    driver = _sparse_driver()
    started = time.process_time()
    cycles = driver.run()
    elapsed = time.process_time() - started
    snapshot = (
        cycles,
        driver.system.stats.to_dict(),
        [access.complete_cycle for access in driver.completed],
    )
    return elapsed, snapshot, cycles


def _ab_compare(run_once, rounds, monkeypatch):
    """Interleave REPRO_FASTFWD=0/1 rounds; best CPU time per mode.

    Returns ``(best, snapshots, events)`` keyed by mode string.
    """
    best = {}
    snapshots = {}
    events = {}
    for _ in range(rounds):
        for mode in ("0", "1"):
            monkeypatch.setenv("REPRO_FASTFWD", mode)
            elapsed, snapshot, count = run_once()
            if mode not in best or elapsed < best[mode]:
                best[mode] = elapsed
            snapshots[mode] = snapshot
            events[mode] = count
    return best, snapshots, events


def _section(best, events):
    """JSON payload fragment for one scenario."""
    return {
        "events": events["1"],
        "sequential": {
            "seconds": round(best["0"], 3),
            "events_per_sec": round(events["0"] / best["0"]),
        },
        "fast": {
            "seconds": round(best["1"], 3),
            "events_per_sec": round(events["1"] / best["1"]),
        },
        "speedup": round(best["0"] / best["1"], 2),
    }


def test_fast_engine_identical_and_faster(monkeypatch):
    # Both passes must genuinely simulate: no persistent cache, no
    # memoised cells (cleared per pass), one in-process worker so the
    # REPRO_FASTFWD pin and the timing cover the actual simulation.
    monkeypatch.setenv("REPRO_CACHE", "0")

    matrix_best, matrix_snaps, matrix_events = _ab_compare(
        _run_matrix_once, MATRIX_ROUNDS, monkeypatch
    )
    assert matrix_snaps["1"] == matrix_snaps["0"], (
        "fast-forward engine diverged from the sequential loop (matrix)"
    )
    assert matrix_events["1"] == matrix_events["0"]

    sparse_best, sparse_snaps, sparse_events = _ab_compare(
        _run_sparse_once, SPARSE_ROUNDS, monkeypatch
    )
    assert sparse_snaps["1"] == sparse_snaps["0"], (
        "fast-forward engine diverged from the sequential loop (sparse)"
    )

    payload = {
        "timer": "process_time, interleaved best-of-N per mode",
        "matrix": _section(matrix_best, matrix_events),
        "sparse_stream": _section(sparse_best, sparse_events),
    }
    path = RESULTS_DIR / "BENCH_engine.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{json.dumps(payload, indent=2)}\n[saved to {path}]")

    # CI pins a regression floor for the *saturated* matrix via
    # REPRO_BENCH_MIN_MATRIX (quarter scale: 1.5x).  The default only
    # guards "not slower" so local runs on loaded machines stay green.
    matrix_floor = float(os.environ.get("REPRO_BENCH_MIN_MATRIX", "1.0"))
    matrix_speedup = matrix_best["0"] / matrix_best["1"]
    assert matrix_speedup >= matrix_floor, (
        f"flat-array fast path must be >={matrix_floor}x the "
        f"sequential loop on the saturated matrix, got "
        f"{matrix_speedup:.2f}x ({matrix_best['1']:.2f}s CPU vs "
        f"{matrix_best['0']:.2f}s CPU)"
    )
    sparse_speedup = sparse_best["0"] / sparse_best["1"]
    assert sparse_speedup >= 2.0, (
        f"next-event engine must be >=2x on the sparse stream, got "
        f"{sparse_speedup:.2f}x ({sparse_best['1']:.2f}s CPU vs "
        f"{sparse_best['0']:.2f}s CPU)"
    )
