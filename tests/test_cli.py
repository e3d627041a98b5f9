"""Tests for the repro-sim command line front end."""

import csv
import json

import pytest

from repro.cli import DEVICES, main


def test_devices_cover_generations():
    # --device mirrors the generation registry one-for-one: every
    # ladder profile is selectable and nothing else sneaks in.
    from repro.dram.timing import GENERATIONS

    assert {"DDR_266", "DDR2_800", "DDR3_1333", "DDR5_4800"} <= set(
        DEVICES
    )
    assert list(DEVICES.values()) == list(GENERATIONS)


def test_benchmark_run_text_output(capsys):
    assert main(["--benchmark", "gzip", "--accesses", "400"]) == 0
    out = capsys.readouterr().out
    assert "mem_cycles" in out
    assert "Burst_TH" in out


def test_micro_run_json_output(capsys):
    assert (
        main(
            [
                "--micro", "stream", "--mechanism", "BkInOrder",
                "--accesses", "300", "--json",
            ]
        )
        == 0
    )
    summary = json.loads(capsys.readouterr().out)
    assert summary["workload"] == "stream"
    assert summary["accesses"] == 300
    assert summary["row_hit"] > 0.9


def test_mix_run(capsys):
    assert (
        main(
            ["--mix", "gzip,mcf", "--accesses", "200", "--json"]
        )
        == 0
    )
    summary = json.loads(capsys.readouterr().out)
    assert summary["workload"] == "gzip+mcf"
    assert summary["accesses"] == 400  # per core


def test_trace_file_run(tmp_path, capsys):
    path = tmp_path / "t.trace"
    path.write_text("0 R 0x1000\n5 W 0x2000\n")
    assert main(["--trace", str(path), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["accesses"] == 2


def test_threshold_and_device_options(capsys):
    assert (
        main(
            [
                "--benchmark", "gzip", "--accesses", "300",
                "--threshold", "16", "--device", "DDR_266", "--json",
            ]
        )
        == 0
    )
    summary = json.loads(capsys.readouterr().out)
    assert summary["mechanism"] == "Burst_TH16"
    assert summary["device"] == "DDR_266"


def test_inorder_cpu_option(capsys):
    assert (
        main(
            [
                "--micro", "random", "--accesses", "200",
                "--cpu", "inorder", "--json",
            ]
        )
        == 0
    )
    assert json.loads(capsys.readouterr().out)["cpu"] == "inorder"


def test_csv_output(tmp_path, capsys):
    path = tmp_path / "out.csv"
    assert (
        main(
            [
                "--micro", "stream", "--accesses", "200",
                "--csv", str(path),
            ]
        )
        == 0
    )
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][0] == "workload"
    assert rows[1][0] == "stream"


def test_missing_trace_file_errors(capsys):
    assert main(["--trace", "/nonexistent.trace"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("accesses", ["-5", "0"])
def test_nonpositive_accesses_errors(accesses, capsys):
    assert main(["--benchmark", "swim", "--accesses", accesses]) == 1
    assert "error: --accesses" in capsys.readouterr().err


def test_record_trace_rejects_nonpositive_accesses(tmp_path, capsys):
    from repro.experiments.cli import main as experiments_main

    out = tmp_path / "out.jsonl"
    assert experiments_main([
        "record-trace", str(out), "--accesses", "-3",
    ]) == 1
    assert "error: --accesses" in capsys.readouterr().err
    assert not out.exists()


def test_mutually_exclusive_sources():
    with pytest.raises(SystemExit):
        main(["--benchmark", "gzip", "--micro", "stream"])


def test_checkpoint_resume_round_trip(tmp_path, capsys):
    """--checkpoint-dir snapshots carry their own metadata; --resume
    rebuilds the run with no source args and matches byte for byte."""
    import signal

    ref = tmp_path / "ref.json"
    assert main([
        "--benchmark", "swim", "--mechanism", "Burst_TH",
        "--accesses", "600", "--stats-out", str(ref),
    ]) == 0
    capsys.readouterr()

    ckdir = tmp_path / "ck"
    before = signal.getsignal(signal.SIGTERM)
    assert main([
        "--benchmark", "swim", "--mechanism", "Burst_TH",
        "--accesses", "600", "--checkpoint-dir", str(ckdir),
        "--checkpoint-every", "500",
    ]) == 0
    capsys.readouterr()
    # The flag-only SIGTERM handler must not leak out of the run: a
    # leaked handler is inherited by forked pool workers and absorbs
    # Pool.terminate(), wedging any later multiprocessing teardown.
    assert signal.getsignal(signal.SIGTERM) is before
    snapshot = ckdir / "swim-Burst_TH.ckpt"
    assert snapshot.exists()

    out = tmp_path / "resumed.json"
    assert main([
        "--resume", str(snapshot), "--stats-out", str(out),
    ]) == 0
    capsys.readouterr()
    assert out.read_bytes() == ref.read_bytes()


def test_checkpoint_every_requires_dir(capsys):
    assert main([
        "--benchmark", "swim", "--accesses", "100",
        "--checkpoint-every", "50",
    ]) == 1
    assert "checkpoint-dir" in capsys.readouterr().err


@pytest.mark.parametrize("every", ["0", "-5"])
def test_checkpoint_every_nonpositive_errors(tmp_path, capsys, every):
    ckdir = tmp_path / "ck"
    assert main([
        "--benchmark", "swim", "--accesses", "300",
        "--checkpoint-every", every, "--checkpoint-dir", str(ckdir),
    ]) == 1
    assert "error: checkpoint interval" in capsys.readouterr().err
    assert not ckdir.exists()
