"""Unit tests for repro.analysis.reporting."""

import pytest

from repro.analysis.reporting import format_bar_chart, format_table


def test_table_alignment():
    out = format_table(["a", "bb"], [[1, 2], [30, 4]])
    lines = out.splitlines()
    assert lines[0].startswith("a ")
    assert "30" in lines[3]


def test_table_title():
    out = format_table(["x"], [[1]], title="T")
    assert out.splitlines()[0] == "T"


def test_table_mismatched_row_raises():
    with pytest.raises(ValueError):
        format_table(["a"], [[1, 2]])


def test_table_float_formatting():
    out = format_table(["v"], [[1.23456]])
    assert "1.235" in out


def test_bar_chart_scales_to_peak():
    out = format_bar_chart({"a": 1.0, "b": 2.0}, width=10)
    a_line, b_line = out.splitlines()
    assert b_line.count("#") == 10
    assert a_line.count("#") == 5


def test_bar_chart_empty():
    assert format_bar_chart({}) == "(empty)"


def test_bar_chart_zero_values():
    out = format_bar_chart({"a": 0.0})
    assert "0.000" in out
