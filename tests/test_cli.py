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
    # leaked handler absorbs any later SIGTERM, so a worker stopped
    # between cells would never exit.
    assert signal.getsignal(signal.SIGTERM) is before
    snapshot = ckdir / "swim-Burst_TH.ckpt"
    assert snapshot.exists()

    out = tmp_path / "resumed.json"
    assert main([
        "--resume", str(snapshot), "--stats-out", str(out),
    ]) == 0
    capsys.readouterr()
    assert out.read_bytes() == ref.read_bytes()


def test_cpu_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--benchmark", "swim", "--cpu", "ooo"])
    assert exit_info.value.code == 2
    assert "--cpu" in capsys.readouterr().err


def _snapshot_with_header(tmp_path, capsys, **header):
    """A --checkpoint-dir snapshot of a short swim run, its header
    patched with ``header`` (``meta`` entries are merged)."""
    ckdir = tmp_path / "ck"
    assert main([
        "--benchmark", "swim", "--accesses", "600",
        "--checkpoint-dir", str(ckdir), "--checkpoint-every", "500",
    ]) == 0
    capsys.readouterr()
    snapshot = ckdir / "swim-Burst_TH.ckpt"
    lines = snapshot.read_text().splitlines()
    first = json.loads(lines[0])
    first["meta"].update(header.pop("meta", {}))
    first.update(header)
    lines[0] = json.dumps(first, sort_keys=True)
    snapshot.write_text("\n".join(lines) + "\n")
    return snapshot


def test_snapshot_with_legacy_cpu_meta_resumes(tmp_path, capsys):
    """Snapshots taken while repro-sim still had a CPU-model option
    record a "cpu" key in their metadata; the extra key is ignored and
    the resume is exact."""
    ref = tmp_path / "ref.json"
    assert main([
        "--benchmark", "swim", "--accesses", "600", "--stats-out", str(ref),
    ]) == 0
    snapshot = _snapshot_with_header(tmp_path, capsys, meta={"cpu": "ooo"})
    out = tmp_path / "resumed.json"
    assert main(["--resume", str(snapshot), "--stats-out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == ref.read_bytes()


def test_resume_of_inorder_snapshot_is_refused(tmp_path, capsys):
    snapshot = _snapshot_with_header(tmp_path, capsys, driver="inorder")
    assert main(["--resume", str(snapshot)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "driver kind" in err
    assert "Traceback" not in err


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


# ----------------------------------------------------------------------
# The tenant count comes from the workload
# ----------------------------------------------------------------------


def _json_run(capsys, *argv):
    assert main([*argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_mix_provisions_one_source_per_core(capsys):
    """A 4-core mix is four tenants, so Burst_QW's per-source write
    quota binds; with the old one-source default it ran as Burst_TH."""
    mix = ("--mix", "swim,mcf,gcc,lucas", "--accesses", "1500")
    plain = _json_run(capsys, *mix, "--mechanism", "Burst_TH")
    quota = _json_run(capsys, *mix, "--mechanism", "Burst_QW")
    assert plain["mem_cycles"] == 26399
    assert quota["mem_cycles"] == 38073


def test_trace_source_column_sets_tenant_count(tmp_path, monkeypatch):
    import repro.cli as cli

    provisioned = []

    class Recording(cli.MemorySystem):
        def __init__(self, config, *args, **kwargs):
            provisioned.append(config.sources)
            super().__init__(config, *args, **kwargs)

    monkeypatch.setattr(cli, "MemorySystem", Recording)
    tagged = tmp_path / "tagged.trace"
    tagged.write_text("0 R 0x1000\n5 W 0x2000 3\n2 R 0x40000000 3\n")
    plain = tmp_path / "plain.trace"
    plain.write_text("0 R 0x1000\n5 W 0x2000\n")
    for path in (tagged, plain):
        assert main(["--trace", str(path), "--mechanism", "Burst_QW"]) == 0
    assert provisioned == [2, 1]


def test_single_stream_runs_as_one_source(capsys):
    """A lone benchmark is one tenant: Burst_QW's quota is the whole
    write queue and the run is Burst_TH's, field for field."""
    run = ("--benchmark", "swim", "--accesses", "1500")
    plain = _json_run(capsys, *run, "--mechanism", "Burst_TH")
    quota = _json_run(capsys, *run, "--mechanism", "Burst_QW")
    assert quota == dict(plain, mechanism="Burst_QW")
    assert (
        plain["mem_cycles"], plain["read_latency"], plain["preemptions"],
        plain["piggybacked_writes"],
    ) == (6524, 107.4977, 23.0, 154.0)


def test_sources_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--benchmark", "swim", "--sources", "2"])
    assert exit_info.value.code == 2
    assert "--sources" in capsys.readouterr().err


def test_killed_mix_qos_run_resumes_identically(tmp_path, monkeypatch, capsys):
    """SIGTERM after the first periodic snapshot: exit 143, and
    --resume rebuilds the mix and its tenant count from the snapshot
    metadata alone."""
    import os
    import signal

    from repro.checkpoint import Checkpointer

    run = ["--mix", "swim,mcf", "--accesses", "600", "--mechanism", "Burst_QW"]
    ref = tmp_path / "ref.json"
    assert main([*run, "--stats-out", str(ref)]) == 0

    save = Checkpointer.save

    def save_then_terminate(self, driver, preempting=False):
        save(self, driver, preempting)
        if not preempting:
            os.kill(os.getpid(), signal.SIGTERM)

    monkeypatch.setattr(Checkpointer, "save", save_then_terminate)
    ckdir = tmp_path / "ck"
    with pytest.raises(SystemExit) as exit_info:
        main([*run, "--checkpoint-dir", str(ckdir),
              "--checkpoint-every", "1000"])
    assert exit_info.value.code == 143
    monkeypatch.undo()

    out = tmp_path / "resumed.json"
    snapshot = ckdir / "swim+mcf-Burst_QW.ckpt"
    assert main(["--resume", str(snapshot), "--stats-out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == ref.read_bytes()
