"""Tests for CSV export helpers."""

import csv

import pytest

from repro.analysis.export import export_rows
from repro.errors import ConfigError


def _read(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_export_rows(tmp_path):
    path = tmp_path / "rows.csv"
    count = export_rows(path, ("a", "b"), [(1, 2), (3, 4)])
    assert count == 2
    assert _read(path) == [["a", "b"], ["1", "2"], ["3", "4"]]


def test_export_rows_width_mismatch(tmp_path):
    with pytest.raises(ConfigError):
        export_rows(tmp_path / "bad.csv", ("a",), [(1, 2)])
