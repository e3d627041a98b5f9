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


def _kill_then_rerun(tmp_path, monkeypatch, capsys, run):
    """Run ``run`` uninterrupted, then under ``REPRO_CHECKPOINT=1``
    killed by SIGTERM right after its first periodic snapshot, then the
    same argv again; the rerun must resume, match byte for byte and
    delete its snapshot."""
    import os
    import signal

    from repro.checkpoint import Checkpointer

    ref = tmp_path / "ref.json"
    assert main([*run, "--stats-out", str(ref)]) == 0
    capsys.readouterr()

    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CHECKPOINT", "1")
    monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "500")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    before = signal.getsignal(signal.SIGTERM)
    save = Checkpointer.save

    def save_then_terminate(self, driver, preempting=False):
        save(self, driver, preempting)
        if not preempting:
            os.kill(os.getpid(), signal.SIGTERM)

    with monkeypatch.context() as patch:
        patch.setattr(Checkpointer, "save", save_then_terminate)
        with pytest.raises(SystemExit) as exit_info:
            main(run)
    assert exit_info.value.code == 143
    # The flag-only SIGTERM handler must not leak out of a run: a
    # leaked handler absorbs any later SIGTERM, so a worker stopped
    # between cells would never exit.
    assert signal.getsignal(signal.SIGTERM) is before
    [snapshot] = (cache / "checkpoints").glob("*.ckpt")
    capsys.readouterr()

    out = tmp_path / "resumed.json"
    assert main([*run, "--stats-out", str(out)]) == 0
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("resumed ") and int(line.split()[-1]) >= 500
    assert signal.getsignal(signal.SIGTERM) is before
    assert not snapshot.exists()
    assert out.read_bytes() == ref.read_bytes()


def test_checkpoint_resume_round_trip(tmp_path, monkeypatch, capsys):
    """A killed repro-sim run resumes when the same command runs again."""
    _kill_then_rerun(tmp_path, monkeypatch, capsys, [
        "--benchmark", "swim", "--mechanism", "Burst_TH", "--accesses", "600",
    ])


def test_cpu_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--benchmark", "swim", "--cpu", "ooo"])
    assert exit_info.value.code == 2
    assert "--cpu" in capsys.readouterr().err


def test_trace_refuses_checkpointing(tmp_path, monkeypatch, capsys):
    """A trace file is no runner cell, so it has nowhere to snapshot."""
    from repro.cli import _build_parser, _run
    from repro.errors import ConfigError

    path = tmp_path / "t.trace"
    path.write_text("0 R 0x1000\n5 W 0x2000\n")
    monkeypatch.setenv("REPRO_CHECKPOINT", "1")
    args = _build_parser().parse_args(["--trace", str(path)])
    with pytest.raises(ConfigError, match="a --trace file is not one"):
        _run(args)
    assert main(["--trace", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: REPRO_CHECKPOINT")


def test_oracle_flag_wins_over_bad_environment(monkeypatch, capsys):
    import repro.dram.oracle as oracle

    attached = []
    attach = oracle.attach_oracles
    monkeypatch.setattr(
        oracle, "attach_oracles",
        lambda system, **kw: attached.append(attach(system, **kw)),
    )
    monkeypatch.setenv("REPRO_ORACLE", "yes")
    run = ["--benchmark", "swim", "--accesses", "300"]
    assert main(run) == 1
    assert "REPRO_ORACLE must be 0 or 1" in capsys.readouterr().err
    assert main([*run, "--oracle"]) == 0
    assert len(attached) == 1


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
    """A killed Burst_QW mix resumes with its tenant count: the rerun
    rebuilds the same runner cell from the same argv."""
    _kill_then_rerun(tmp_path, monkeypatch, capsys, [
        "--mix", "swim,mcf", "--accesses", "600", "--mechanism", "Burst_QW",
    ])
