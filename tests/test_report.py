"""Smoke test for the EXPERIMENTS.md report generator.

Runs the entire report pipeline at a strongly reduced scale (~500
accesses per cell) — slow for a unit test (~15 s) but it covers
the one code path that produces the repository's headline artifact.
"""

import pytest

from repro.experiments.common import clear_cache


@pytest.fixture(autouse=True)
def _tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    clear_cache()
    yield
    clear_cache()


def test_build_report_structure(tmp_path):
    from repro.experiments.report import write_report

    path = tmp_path / "EXPERIMENTS.md"
    write_report(str(path))
    text = path.read_text()
    for heading in (
        "# EXPERIMENTS — paper vs. measured",
        "## Table 1",
        "## Figure 1",
        "## Figure 7",
        "## Figure 8",
        "## Figure 9",
        "## Figure 10",
        "## Figure 11",
        "## Figure 12",
        "## §5.1",
        "## Beyond the paper — ablations and extensions",
        "### generations",
        "### ablation_cpu_model",
        "### ablation_mapping",
        "### ablation_policies",
        "### ablation_rowpolicy",
        "### cmp_mix",
        "### microbench",
        "## Archived bench output",
        "## Tables 2-4",
    ):
        assert heading in text, heading
    # The exact-match artifacts hold even at tiny scale.
    assert "**28 / 1" in text  # in-order 28 cycles; OoO 15-16
    assert "REPRO_SCALE=0.05" in text


def test_cli_report_command(tmp_path, capsys):
    from repro.experiments.cli import main

    path = tmp_path / "R.md"
    assert main(["report", str(path)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert path.read_text().startswith("# EXPERIMENTS")
