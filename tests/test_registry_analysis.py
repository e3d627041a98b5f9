"""Tests for the mechanism registry (Table 4) and analysis helpers."""

import pytest

from repro.analysis.metrics import arithmetic_mean, percent_reduction
from repro.analysis.tables import format_series, format_table
from repro.controller.registry import (
    MECHANISMS,
    make_scheduler_factory,
    mechanism_names,
)
from repro.controller.system import MemorySystem
from repro.errors import ConfigError
from repro.sim.config import baseline_config


TABLE4 = [
    "BkInOrder",
    "RowHit",
    "Intel",
    "Intel_RP",
    "Burst",
    "Burst_RP",
    "Burst_WP",
    "Burst_TH",
]


def test_registry_matches_table4_order():
    assert mechanism_names() == TABLE4


def test_every_factory_builds(quiet_config):
    """Each registered mechanism's exact name and threshold: the name
    reaches checkpoint headers and repro-sim output, and the threshold
    follows §5.4 (Burst_RP ≡ TH = write-queue size, Burst_WP ≡ TH0)."""
    wq = quiet_config.write_queue_size
    th = quiet_config.threshold
    expected = {
        "BkInOrder": ("BkInOrder", None),
        "RowHit": ("RowHit", None),
        "Intel": ("Intel", None),
        "Intel_RP": ("Intel_RP", None),
        "Burst": ("Burst", th),
        "Burst_RP": ("Burst_RP", wq),
        "Burst_WP": ("Burst_WP", 0),
        "Burst_TH": (f"Burst_TH{th}", th),
        "Burst_DYN": ("Burst_DYN", th),
        "FCFS": ("FCFS", None),
        "Burst_QW": ("Burst_QW", th),
        "Burst_BPW": ("Burst_BPW", th),
    }
    assert (th, wq) == (52, 64)
    assert sorted(expected) == sorted(MECHANISMS)
    for name, (mechanism_name, threshold) in expected.items():
        system = MemorySystem(quiet_config, name)
        assert system.mechanism_name == mechanism_name, name
        for scheduler in system.schedulers:
            assert scheduler.name == mechanism_name, name
            assert getattr(scheduler, "threshold", None) == threshold, name


def test_unknown_mechanism_raises():
    with pytest.raises(ConfigError):
        make_scheduler_factory("FRFCFS_9000")


def test_unknown_mechanism_error_lists_extensions():
    """The error lists every accepted mechanism, extensions included."""
    with pytest.raises(ConfigError, match="Burst_DYN"):
        MemorySystem(baseline_config(), "AHB")


def test_arithmetic_mean():
    assert arithmetic_mean([1.0, 3.0]) == 2.0
    with pytest.raises(ConfigError):
        arithmetic_mean([])


def test_percent_reduction_matches_paper_phrasing():
    assert percent_reduction(0.79) == pytest.approx(21.0)
    assert percent_reduction(1.0) == 0.0


def test_format_table_alignment():
    text = format_table(
        ("name", "value"), [("x", 1.5), ("longer", 0.25)], title="T"
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert all(len(line) == len(lines[1]) for line in lines[2:])


def test_format_series():
    series = format_series("s", [(1, 0.5), (2, 0.25)])
    assert "1: 0.5000" in series
