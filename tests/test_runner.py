"""Tests for the parallel runner and the persistent result cache.

The two load-bearing guarantees:

* parallel and sequential runs of the same matrix produce
  byte-identical ``SimStats`` dictionaries (the simulator is a pure
  function of the cell, and serialization is lossless);
* a second invocation of the same matrix is served entirely from the
  on-disk cache — zero simulations executed.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.experiments import common, runner
from repro.settings import Settings, settings, using
from repro.sim.config import baseline_config
from repro.workloads import open_loop
from repro.workloads.trace import Trace

BENCHES = ("swim", "mcf")
MECHS = ("BkInOrder", "Burst_TH")
N = 600
SEED = 1


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the persistent store at a throwaway dir, reset the memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_PROGRESS", "0")
    common.clear_cache()
    yield
    common.clear_cache()


def _cells():
    cfg = baseline_config()
    return [(b, m, N, SEED, cfg) for b in BENCHES for m in MECHS]


def _workload_cells():
    """A CMP mix cell, a microbenchmark cell and two open-loop drains (a
    fleet scenario and one tenant alone): workloads that are not a SPEC
    profile (``repro.workloads.make_trace`` / ``make_requests``)."""
    cfg = baseline_config()
    pair = replace(cfg, sources=2)
    return [(w, "Burst_TH", N, SEED, cfg) for w in ("swim+mcf", "stride8k")] + [
        (w, "Burst_QW", N, SEED, pair) for w in ("hog_vs_reader", "reader@1")
    ]


def _dumps(stats):
    return json.dumps(stats.to_dict(), sort_keys=True)


def _core_dict(core):
    return None if core is None else core.to_dict()


def test_parallel_matches_sequential_byte_identical(tmp_path, monkeypatch):
    cells = _cells() + _workload_cells()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "seq"))
    seq, seq_report = runner.run_cells(cells, jobs=1, memo={})
    assert seq_report.executed == len(cells)

    # A separate store so every parallel cell really simulates.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "par"))
    par, par_report = runner.run_cells(cells, jobs=2, memo={})
    assert par_report.executed == len(cells)
    assert par_report.cached_disk == 0

    for cell in cells:
        assert _dumps(seq[cell][0]) == _dumps(par[cell][0])
        assert _core_dict(seq[cell][1]) == _core_dict(par[cell][1])
        assert (seq[cell][1] is None) == open_loop(cell[0])


def _children():
    """Pids of this process's live children (Linux ``/proc``)."""
    from pathlib import Path

    kids = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # the process exited while we looked
        if ppid == os.getpid():
            kids.add(int(stat.parent.name))
    return kids


def test_failed_pool_cell_raises_and_stops_workers():
    """A cell that fails on a worker stops a ``jobs=2`` run: the error
    names the cell and carries the worker's text, and no worker
    process outlives the call."""
    from repro.errors import ReproError

    good, = _cells()[:1]
    bad = ("swim", "NoSuchMechanism", N, SEED, baseline_config())
    before = _children()
    with pytest.raises(ReproError) as error:
        runner.run_cells([good, bad], jobs=2, memo={})
    message = str(error.value)
    assert "swim/NoSuchMechanism" in message
    assert "ConfigError: unknown mechanism 'NoSuchMechanism'" in message
    assert _children() <= before


#: Runs two pool cells, prints the error, then whether a child is left.
NEVER_READY = """
import os
from repro.errors import ReproError
from repro.experiments import runner
from repro.sim.config import baseline_config

cells = [("swim", m, 300, 1, baseline_config()) for m in ("FCFS", "Burst")]
try:
    runner.run_cells(cells, jobs=2, memo={})
except ReproError as error:
    print(error)
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child survived")
except ChildProcessError:
    print("no child left")
"""


def test_pool_stops_respawning_workers_that_never_start(tmp_path):
    """Workers that exit before ``ready`` are respawned at most
    ``MAX_ATTEMPTS`` times in a row; then every queued cell fails, so a
    ``jobs=2`` run raises with the exit status instead of hanging."""
    import subprocess
    import sys
    from pathlib import Path

    import repro
    from repro.service.pool import MAX_ATTEMPTS

    (tmp_path / "sitecustomize.py").write_text(
        "import os\n"
        "with open('/proc/self/cmdline', 'rb') as cmdline:\n"
        "    if b'repro.service.workers' in cmdline.read():\n"
        "        os._exit(3)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(
        os.environ, REPRO_CACHE="0",
        PYTHONPATH=os.pathsep.join([src, str(tmp_path)]),
    )
    proc = subprocess.run(
        [sys.executable, "-c", NEVER_READY], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    error, left = proc.stdout.splitlines()
    assert error.endswith(
        f"failed: worker exited 3 before it was ready "
        f"({MAX_ATTEMPTS} times in a row)"
    )
    assert left == "no child left"


def test_second_invocation_all_from_disk_cache():
    cells = _cells()
    _, first = runner.run_cells(cells, jobs=2, memo={})
    assert first.executed == len(cells)

    # Fresh memo: only the on-disk store can satisfy these cells.
    _, second = runner.run_cells(cells, jobs=2, memo={})
    assert second.executed == 0
    assert second.cached_disk == len(cells)

    # Same memo again: everything memoised, disk untouched.
    memo = {}
    runner.run_cells(cells, jobs=1, memo=memo)
    _, third = runner.run_cells(cells, jobs=1, memo=memo)
    assert third.executed == 0
    assert third.cached_memo == len(cells)


def test_disk_cache_round_trip_preserves_reports():
    for cell in _cells()[:1] + _workload_cells():
        fresh, _ = runner.run_cells([cell], jobs=1, memo={})
        cached, report = runner.run_cells([cell], jobs=1, memo={})
        assert report.cached_disk == 1
        assert cached[cell][0].report() == fresh[cell][0].report()
        assert _dumps(cached[cell][0]) == _dumps(fresh[cell][0])
        assert cached[cell][1] == fresh[cell][1]


def test_resolve_parallel_equals_sequential(monkeypatch):
    seq = common.resolve(common.matrix(BENCHES, MECHS, accesses=N), jobs=1)
    common.clear_cache()
    monkeypatch.setenv("REPRO_CACHE", "0")  # force re-simulation
    par = common.resolve(common.matrix(BENCHES, MECHS, accesses=N), jobs=2)
    assert set(seq) == set(par)
    for pair in seq:
        assert _dumps(seq[pair][0]) == _dumps(par[pair][0])


def test_resolve_memo_identity_preserved():
    run = {"one": common.cell("swim", "Burst_TH", accesses=N)}
    stats = common.resolve(run)["one"][0]
    matrix = common.resolve(
        common.matrix(("swim",), ("Burst_TH",), accesses=N), jobs=2
    )
    assert matrix[("swim", "Burst_TH")][0] is stats


def test_memo_hits_reach_the_session_totals(monkeypatch):
    """A cell served from the memo is counted like any other."""
    from repro.experiments import fig7, fig8

    monkeypatch.setenv("REPRO_CACHE", "0")
    fig7.run(benchmarks=["swim"], accesses=500)
    before = (runner.TOTALS.total, runner.TOTALS.cached_memo)
    fig8.run(accesses=500)  # its six swim cells are all fig7 cells
    after = (runner.TOTALS.total, runner.TOTALS.cached_memo)
    assert (after[0] - before[0], after[1] - before[1]) == (6, 6)


def _one_call_cases():
    from repro.dram.timing import GENERATIONS
    from repro.experiments import (
        ablations, fig7, fig8, fig9, fig10, fig11, fig12, fleet,
        generations, refresh_pressure, saturation,
    )

    pair = ["swim", "mcf"]
    # fig12 and refresh_pressure get their baseline ("Burst", "REFab")
    # last: results are normalised to it wherever it sits in the sweep.
    # ablations takes no access count: the test's REPRO_SCALE brings
    # every one of its cells down to the 500-access floor.
    return {
        "ablations": ablations.run,
        "fig7": lambda: fig7.run(pair, accesses=500),
        "fig8": lambda: fig8.run(accesses=500),
        "fig9": lambda: fig9.run(pair, accesses=500),
        "fig10": lambda: fig10.run(pair, accesses=500),
        "fig11": lambda: fig11.run(thresholds=(0, 32, 64), accesses=500),
        "fig12": lambda: fig12.run(pair, sweep=(0, "Burst"), accesses=500),
        "fleet": lambda: fleet.run(
            ("hog_vs_reader", "flooder_vs_reader"), ("Burst_TH",),
            accesses=500,
        ),
        "saturation": lambda: saturation.run(accesses=500),
        "generations": lambda: generations.run(
            pair, GENERATIONS[:2], ("BkInOrder", "RowHit"), accesses=500
        ),
        "refresh_pressure": lambda: refresh_pressure.run(
            pair, policies=("DARP", "REFab"), mechanisms=("FCFS",),
            accesses=500,
        ),
    }


@pytest.mark.parametrize("name", sorted(_one_call_cases()))
def test_each_experiment_resolves_its_cells_in_one_call(name, monkeypatch):
    calls = []
    run_cells = runner.run_cells

    def counting(*args, **kwargs):
        calls.append(args)
        return run_cells(*args, **kwargs)

    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.setenv("REPRO_SCALE", "0.01")
    monkeypatch.setattr(runner, "run_cells", counting)
    _one_call_cases()[name]()
    assert len(calls) == 1


def test_fleet_shares_its_reader_drain():
    """The full fleet matrix is 28 drains, 26 of them unique: the
    reader@1 solo drain of hog_vs_reader and flooder_vs_reader is one
    cell per mechanism."""
    from repro.experiments import fleet

    drains = fleet.cells()
    assert len(drains) == 28
    assert len({runner.cell_key(*c) for c in drains.values()}) == 26
    for mechanism in fleet.MECHANISMS:
        assert drains["hog_vs_reader", mechanism, 1] == (
            drains["flooder_vs_reader", mechanism, 1]
        )


def test_cell_key_sensitivity():
    cfg = baseline_config()
    base = runner.cell_key("swim", "Burst_TH", N, SEED, cfg)
    assert base == runner.cell_key("swim", "Burst_TH", N, SEED, cfg)
    assert base != runner.cell_key("mcf", "Burst_TH", N, SEED, cfg)
    assert base != runner.cell_key("swim", "Burst", N, SEED, cfg)
    assert base != runner.cell_key("swim", "Burst_TH", N + 1, SEED, cfg)
    assert base != runner.cell_key("swim", "Burst_TH", N, SEED + 1, cfg)
    assert base != runner.cell_key(
        "swim", "Burst_TH", N, SEED, cfg.with_threshold(40)
    )


def test_corrupt_cache_entry_reads_as_miss():
    cells = _cells()[:1]
    runner.run_cells(cells, jobs=1, memo={})
    for path in settings().cache_dir.rglob("*.json"):
        path.write_text("{ not json")
    _, report = runner.run_cells(cells, jobs=1, memo={})
    assert report.executed == 1  # corrupt entry re-simulated and healed
    _, again = runner.run_cells(cells, jobs=1, memo={})
    assert again.cached_disk == 1


def _mangle_stats(field, value):
    def mangle(entry):
        entry["stats"][field] = value
        return entry
    return mangle


def _set(field, value):
    def mangle(entry):
        entry[field] = value
        return entry
    return mangle


@pytest.mark.parametrize(
    "mangle",
    [
        lambda entry: None,
        lambda entry: [],
        _set("stats", [1, 2]),
        _mangle_stats("row_states", 5),
        _mangle_stats("burst_sizes", [1, 2]),
        _set("core", "oops"),
    ],
    ids=["null", "list", "stats_list", "row_states_int",
         "burst_sizes_list", "core_str"],
)
def test_wrong_shaped_cache_entry_is_a_miss(mangle):
    """Well-formed JSON with a wrong-shaped field is corruption too:
    ``cache_load`` misses, ``run_cells`` re-simulates, and
    ``cache_info`` skips what is not an entry at all."""
    cells = _cells()[:1]
    expected, _ = runner.run_cells(cells, jobs=1, memo={})
    (path,) = settings().cache_dir.rglob("*.json")
    entry = mangle(json.loads(path.read_text()))
    path.write_text(json.dumps(entry))
    assert runner.cache_load(runner.cell_key(*cells[0])) is None
    assert runner.cache_info()["entries"] == int(isinstance(entry, dict))
    results, report = runner.run_cells(cells, jobs=1, memo={})
    assert report.executed == 1
    assert _dumps(results[cells[0]][0]) == _dumps(expected[cells[0]][0])


def test_cache_disabled_by_env(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    cells = _cells()[:1]
    runner.run_cells(cells, jobs=1, memo={})
    assert not settings().cache_dir.exists()
    _, report = runner.run_cells(cells, jobs=1, memo={})
    assert report.executed == 1


def test_warm_cache_never_stands_in_for_a_checking_run():
    """The cell key holds neither the oracle nor the engine mode: a
    warm cell is simulated again under either, and stays warm."""
    cells = _cells()[:1]
    runner.run_cells(cells, jobs=1, memo={})
    for knobs in ({"oracle": True}, {"fastfwd": False}):
        with using(replace(settings(), **knobs)):
            _, report = runner.run_cells(cells, jobs=1, memo={})
        assert (report.executed, report.cached_disk) == (1, 0)
    _, report = runner.run_cells(cells, jobs=1, memo={})
    assert (report.executed, report.cached_disk) == (0, 1)


def test_pool_workers_parse_no_environment(monkeypatch):
    """Workers run each cell under the settings on the wire: a knob
    the parent's environment gets wrong never reaches them."""
    cells = _cells()[:2]
    reference, _ = runner.run_cells(cells, jobs=1, memo={})
    monkeypatch.setenv("REPRO_FASTFWD", "bogus")
    with using(Settings(cache=False, progress=False)):
        results, report = runner.run_cells(cells, jobs=2, memo={})
    assert report.executed == 2
    for cell in cells:
        assert _dumps(results[cell][0]) == _dumps(reference[cell][0])


def test_cache_info_and_clear():
    cells = _cells()
    runner.run_cells(cells, jobs=1, memo={})
    info = runner.cache_info()
    assert info["entries"] == len(cells)
    assert info["current_entries"] == len(cells)
    assert info["bytes"] > 0
    assert set(info["by_benchmark"]) == set(BENCHES)
    assert runner.cache_clear() == len(cells)
    assert runner.cache_info()["entries"] == 0
    assert runner.cache_clear() == 0  # idempotent on an empty store


def test_cache_gc_evicts_lru_until_fit():
    cells = _cells()
    runner.run_cells(cells, jobs=1, memo={})
    paths = sorted(settings().cache_dir.rglob("*.json"))
    assert len(paths) == len(cells)
    # Make the LRU order explicit: the first file is the coldest.
    import os as _os

    for age, path in enumerate(paths):
        _os.utime(path, (1_000_000 + age, 1_000_000 + age))
    sizes = {path: path.stat().st_size for path in paths}
    keep = sum(sizes[p] for p in paths[2:])  # room for the 2 newest

    removed, remaining = runner.cache_gc(keep)
    assert removed == 2
    assert remaining <= keep
    survivors = set(settings().cache_dir.rglob("*.json"))
    assert survivors == set(paths[2:])  # coldest two evicted

    # Idempotent once the store fits; 0 clears everything.
    assert runner.cache_gc(keep) == (0, remaining)
    removed, remaining = runner.cache_gc(0)
    assert remaining == 0
    assert not list(settings().cache_dir.rglob("*.json"))

    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        runner.cache_gc(-1)


def test_cache_gc_covers_checkpoint_snapshots():
    snapshot = runner.checkpoint_path("deadbeef")
    snapshot.parent.mkdir(parents=True, exist_ok=True)
    snapshot.write_bytes(b"x" * 64)
    removed, remaining = runner.cache_gc(0)
    assert removed == 1
    assert remaining == 0
    assert not snapshot.exists()


def test_cli_cache_gc(capsys):
    from repro.experiments.cli import main

    runner.run_cells(_cells()[:1], jobs=1, memo={})
    assert main(["cache", "gc", "--max-bytes", "1M"]) == 0
    assert "evicted 0" in capsys.readouterr().out
    assert main(["cache", "gc", "--max-bytes", "0"]) == 0
    assert "evicted 1" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["cache", "gc", "--max-bytes", "lots"])


def test_progress_piped_output_is_line_buffered(monkeypatch):
    """Satellite: when stderr is a pipe (job service, CI logs), each
    progress tick is a complete, flushed, newline-terminated line —
    no carriage-return redraws that accumulate into one mega-line."""
    import io

    class PipeStderr(io.StringIO):
        def __init__(self):
            super().__init__()
            self.flushes = 0

        def isatty(self):
            return False

        def flush(self):
            self.flushes += 1
            return super().flush()

    pipe = PipeStderr()
    monkeypatch.setattr(runner.sys, "stderr", pipe)
    report = runner.RunReport(total=4)
    report.executed = 1
    runner._print_progress(report)
    report.executed = 2
    runner._print_progress(report)
    out = pipe.getvalue()
    assert "\r" not in out
    assert out.endswith("\n")
    assert len(out.splitlines()) == 2
    assert pipe.flushes == 2
    # REPRO_PROGRESS=1 forces the reporter on even without a tty: a
    # memo-served cell prints one line.
    monkeypatch.setenv("REPRO_PROGRESS", "1")
    cell = _cells()[0]
    runner.run_cells([cell], memo={cell: "served"})
    assert len(pipe.getvalue().splitlines()) == 3


def test_progress_tty_redraws_in_place(monkeypatch):
    import io

    class TtyStderr(io.StringIO):
        def isatty(self):
            return True

    tty = TtyStderr()
    monkeypatch.setattr(runner.sys, "stderr", tty)
    report = runner.RunReport(total=2)
    report.executed = 1
    runner._print_progress(report)
    assert tty.getvalue().startswith("\r")
    assert "\n" not in tty.getvalue()
    report.executed = 2
    runner._print_progress(report)  # completion appends the newline
    assert tty.getvalue().endswith("\n")


def test_default_jobs_env(monkeypatch):
    """``run_cells`` takes its job count from the ``jobs`` setting
    (``REPRO_JOBS``, parsed in ``tests/test_knobs.py``); an explicit
    ``jobs=`` is checked like it."""
    from repro.errors import ConfigError

    monkeypatch.setenv("REPRO_JOBS", "bogus")
    with pytest.raises(ConfigError, match="^REPRO_JOBS must be an integer"):
        runner.run_cells([])
    # An explicit count wins over the environment and parses alike.
    assert runner.run_cells([], jobs=3)[1].total == 0
    for jobs in (-2, "x"):
        with pytest.raises(ConfigError, match=f"^jobs must be .*, got {jobs!r}$"):
            runner.run_cells([], jobs=jobs)


def test_pool_runs_parse_every_knob(monkeypatch):
    """A pool run sends the whole settings to its workers, so it parses
    every knob; an inline run reads only the ones its cells use."""
    from repro.errors import ConfigError

    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "0")
    error = "^REPRO_CHECKPOINT_EVERY must be positive, got 0$"
    with pytest.raises(ConfigError, match=error):
        runner.run_cells(_cells()[:2], jobs=2, memo={})
    assert runner.run_cells(_cells()[:1], jobs=2, memo={})[1].executed == 1


def test_code_version_stable_and_short():
    assert runner.code_version() == runner.code_version()
    assert len(runner.code_version()) == 16


def test_cli_cache_subcommands(capsys, monkeypatch):
    from repro.experiments.cli import main

    runner.run_cells(_cells()[:1], jobs=1, memo={})
    monkeypatch.setenv("REPRO_SCALE", "abc")  # read by no cache command
    assert main(["cache", "info"]) == 0
    out = capsys.readouterr().out
    assert "entries" in out and "1" in out
    assert main(["cache", "clear"]) == 0
    assert "removed 1" in capsys.readouterr().out


def test_cli_shorthand_and_jobs(capsys, monkeypatch):
    from repro.experiments.cli import main

    monkeypatch.setenv("REPRO_SCALE", "0.01")  # floor: 500 accesses
    assert main(["table1", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out
    assert main(["run", "table1"]) == 0  # explicit form still works


def test_checkpoint_resume_of_interrupted_cell(monkeypatch):
    """A cell interrupted mid-run resumes from its snapshot and matches
    the uninterrupted result byte for byte; completed cells are served
    from the result cache and never re-simulated.  Closed-loop and
    open-loop cells alike."""
    import signal

    from repro.checkpoint import save_checkpoint
    from repro.controller.system import MemorySystem
    from repro.cpu.core import OoOCore
    from repro.sim.engine import OpenLoopDriver
    from repro.workloads import make_requests
    from repro.workloads.spec2000 import make_benchmark_trace

    monkeypatch.setenv("REPRO_CHECKPOINT", "1")
    cfg = baseline_config(channels=1, ranks=2, banks=2)
    pair = replace(cfg, sources=2)
    drivers = {
        ("swim", "Burst_TH", N, SEED, cfg): lambda system: OoOCore(
            system, make_benchmark_trace("swim", N, SEED)
        ),
        ("hog_vs_reader", "Burst_QW", N, SEED, pair):
            lambda system: OpenLoopDriver(
                system, make_requests("hog_vs_reader", N, pair, SEED)
            ),
    }
    for cell, driver_of in drivers.items():
        results, _report = runner.run_cells([cell], jobs=1, memo={})
        stats_ref, core_ref = results[cell]
        reference = json.dumps(
            [stats_ref.to_dict(), _core_dict(core_ref)], sort_keys=True
        )

        # Manufacture the interrupted run: step partway, snapshot at the
        # cell's keyed checkpoint path (exactly what a SIGTERM would do).
        driver = driver_of(MemorySystem(cell[4], cell[1]))
        for _ in range(300):
            driver.step()
        assert not driver.done
        snapshot = runner.checkpoint_path(runner.cell_key(*cell))
        save_checkpoint(str(snapshot), driver)

        # The completed cell resolves from the result cache — no
        # re-simulation, so the stale snapshot is not even consulted.
        _results, report = runner.run_cells([cell], jobs=1, memo={})
        assert report.executed == 0
        assert report.cached_disk == 1
        assert snapshot.exists()

        # Wipe the cached result (cache_clear would take the snapshot
        # with it): the rerun must resume from the snapshot and still
        # match the uninterrupted reference byte for byte.
        runner._cache_path(runner.cell_key(*cell)).unlink()
        before = signal.getsignal(signal.SIGTERM)
        run = runner.execute_cell(cell)
        assert run.resumed_cycle is not None
        resumed = json.dumps(
            [run.stats.to_dict(), _core_dict(run.core)], sort_keys=True
        )
        assert resumed == reference
        assert not snapshot.exists()  # deleted after completing
        # No leaked SIGTERM handler: a leaked flag-only handler absorbs
        # the SIGTERM that stops the process between cells.
        assert signal.getsignal(signal.SIGTERM) is before


def test_pool_workers_resume_only_under_repro_checkpoint(monkeypatch):
    """``jobs=2`` workers consult a cell's snapshot exactly when
    ``REPRO_CHECKPOINT=1``, and the resumed result is unchanged."""
    from repro.checkpoint import save_checkpoint
    from repro.controller.system import MemorySystem
    from repro.cpu.core import OoOCore
    from repro.workloads.spec2000 import make_benchmark_trace

    monkeypatch.setenv("REPRO_CACHE", "0")
    cells = _cells()[:2]
    reference, _ = runner.run_cells(cells, jobs=1, memo={})
    benchmark, mechanism, accesses, seed, cfg = cells[0]
    core = OoOCore(
        MemorySystem(cfg, mechanism),
        make_benchmark_trace(benchmark, accesses, seed),
    )
    for _ in range(300):
        core.step()
    snapshot = runner.checkpoint_path(runner.cell_key(*cells[0]))
    save_checkpoint(str(snapshot), core)

    for flag, kept in (("0", True), ("1", False)):
        monkeypatch.setenv("REPRO_CHECKPOINT", flag)
        results, _ = runner.run_cells(cells, jobs=2, memo={})
        assert snapshot.exists() is kept
        for cell in cells:
            assert _dumps(results[cell][0]) == _dumps(reference[cell][0])


def test_code_version_folds_checkpoint_schema(monkeypatch):
    """Satellite guarantee: the checkpoint schema version is part of
    the runner's code-version digest (cell keys orphan old snapshots
    when the snapshot format changes)."""
    import repro.checkpoint as checkpoint

    baseline = runner.code_version()
    monkeypatch.setattr(runner, "_code_version", None)
    monkeypatch.setattr(
        checkpoint, "SCHEMA_VERSION", checkpoint.SCHEMA_VERSION + 1
    )
    bumped = runner.code_version()
    monkeypatch.setattr(runner, "_code_version", None)
    assert bumped != baseline


def test_cells_sharing_a_trace_equal_fresh_runs():
    """Consecutive cells on one (benchmark, accesses, seed) reuse one
    immutable trace, and each still equals a fresh run."""
    from repro.controller.system import MemorySystem
    from repro.cpu.core import OoOCore
    from repro.workloads.spec2000 import make_benchmark_trace

    cfg = baseline_config()
    runner._cell_trace.cache_clear()
    for mechanism in MECHS:
        cell = ("swim", mechanism, N, SEED, cfg)
        run = runner.execute_cell(cell)
        system = MemorySystem(cfg, mechanism)
        fresh = OoOCore(system, make_benchmark_trace("swim", N, SEED)).run()
        assert _dumps(run.stats) == _dumps(system.stats)
        assert run.core == fresh
    info = runner._cell_trace.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, len(MECHS) - 1, 1)
    assert type(runner._cell_trace("swim", N, SEED)) is Trace
    runner._cell_trace("mcf", N, SEED)
    assert runner._cell_trace.cache_info().currsize == 1
