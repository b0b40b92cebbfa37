"""Unit tests for report formatting."""

import pytest

from repro.experiments.report import format_table


def test_format_table_basic():
    text = format_table(
        "Demo", ["r1", "r2"], {"a": [1.0, 2.0], "b": [3.0, 4.5]}
    )
    lines = text.splitlines()
    assert lines[0] == "Demo"
    assert "a" in lines[2] and "b" in lines[2]
    assert "1.000" in text and "4.500" in text
    assert text.index("r1") < text.index("r2")


def test_format_table_custom_format_and_note():
    text = format_table(
        "T", ["x"], {"v": [12.345]}, value_format="{:+.1f}", note="hello"
    )
    assert "+12.3" in text
    assert text.endswith("hello")


def test_format_table_length_mismatch():
    with pytest.raises(ValueError):
        format_table("T", ["a", "b"], {"v": [1.0]})

