"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``.

They check that the printed metrics are exactly the ones
``BENCHMARK.json`` declares, that a wrong reference digest is reported
as a failed cell, and that tracing leaves the simulated outputs alone.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, references=None):
    command = [sys.executable, str(HERE / "run.py"), *args]
    if references is not None:
        command += ["--references", str(references)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_metric_names_and_units_match_benchmark_json(workload, trace):
    code, result = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", trace, "--cells", "8",
    )
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_reference_is_a_failure(tmp_path):
    references = tmp_path / "references"
    shutil.copytree(HERE / "references", references)
    path = references / "ddr5_writes.json"
    data = json.loads(path.read_text())
    sets = data["inputs"]
    sets["1"] = {cell: "0" * 16 for cell in sets["1"]}
    path.write_text(json.dumps(data))
    code, result = run_bench(
        "--workload", "ddr5_writes", "--seed", "1", "--seconds", "1",
        "--trace", "0", references=references,
    )
    assert code == 1
    assert not result["correct"]
    # The Latin square runs one cell in len(sets) on input set 1.
    assert result["failed"] == result["attempted"] // len(sets) >= 1


def test_host_cost_knob_refuses_to_time():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fig7_closed",
         "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "REPRO_ORACLE": "1"},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "REPRO_ORACLE" in proc.stderr


def test_traced_model_counts_equal_untraced():
    cells = wl.plan("ddr5_writes", 0, limit=4) + wl.plan("sparse_open", 0, limit=2)
    untraced = [wl.run_cell(cell, time.process_time) for cell in cells]
    tracer = Tracer().install()
    try:
        traced = [wl.run_cell(cell, time.process_time, tracer) for cell in cells]
    finally:
        tracer.uninstall()
    assert wl.model_counts(traced) == wl.model_counts(untraced)
    assert [o.digest for o in traced] == [o.digest for o in untraced]
    assert tracer.layers["sched.schedule"].calls > 0
    assert tracer.layers["refresh.tick"].count > 0  # DDR5 per-bank refresh ran
    assert tracer.layers["engine.step"].calls > 0
    assert len(tracer.spans) == len(cells)


@pytest.mark.parametrize("workload", wl.IN_PROCESS)
def test_cell_keys_are_unique_within_a_pass(workload):
    cells = wl.plan(workload, 5)
    assert len({cell.key for cell in cells}) == len(cells)


def test_reference_seconds_scale_with_the_calibration():
    from calibration import REFERENCE_S, calibrate, reference_seconds

    assert reference_seconds(1.0, 2 * REFERENCE_S) == pytest.approx(0.5)
    assert calibrate() > 0


def test_uninstall_restores_every_wrapped_attribute():
    from repro.controller.system import MemorySystem

    tick = MemorySystem.__dict__["tick"]
    tracer = Tracer().install()
    assert MemorySystem.__dict__["tick"] is not tick
    tracer.uninstall()
    assert MemorySystem.__dict__["tick"] is tick
