"""Tests for the mechanism registry (Table 4) and analysis helpers."""

import pytest

from repro.analysis.metrics import (
    arithmetic_mean,
    geometric_mean,
    normalize_to,
    percent_reduction,
)
from repro.analysis.tables import format_mapping, format_series, format_table
from repro.controller.registry import (
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
    for name in mechanism_names():
        system = MemorySystem(quiet_config, name)
        assert system.mechanism_name.startswith(name.split("_TH")[0])


def test_unknown_mechanism_raises():
    with pytest.raises(ConfigError):
        make_scheduler_factory("FRFCFS_9000")


def test_unknown_mechanism_error_lists_extensions():
    """The error lists every accepted mechanism, extensions included."""
    with pytest.raises(ConfigError, match="Burst_DYN"):
        MemorySystem(baseline_config(), "AHB")


def test_arithmetic_and_geometric_mean():
    assert arithmetic_mean([1.0, 3.0]) == 2.0
    assert geometric_mean([1.0, 4.0]) == 2.0
    with pytest.raises(ConfigError):
        arithmetic_mean([])
    with pytest.raises(ConfigError):
        geometric_mean([0.0, 1.0])


def test_normalize_to():
    normalized = normalize_to({"a": 2.0, "b": 4.0}, "a")
    assert normalized == {"a": 1.0, "b": 2.0}
    with pytest.raises(ConfigError):
        normalize_to({"a": 1.0}, "zz")
    with pytest.raises(ConfigError):
        normalize_to({"a": 0.0}, "a")


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


def test_format_series_and_mapping():
    series = format_series("s", [(1, 0.5), (2, 0.25)])
    assert "1: 0.5000" in series
    mapping = format_mapping("m", {"alpha": 1.0, "b": 0.125})
    assert "alpha" in mapping and "0.125" in mapping
