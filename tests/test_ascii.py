"""Tests for the ASCII chart renderers."""

import pytest

from repro.bench.ascii import grouped_bar_chart, line_sketch


class TestBarChart:
    """The bar itself, drawn through a one-group chart."""

    def test_proportional_bars(self):
        out = grouped_bar_chart({"g": {"a": 1.0, "b": 2.0}}, width=10)
        _, a_line, b_line = out.splitlines()
        assert b_line.count("█") == 10
        assert a_line.count("█") == 5

    def test_title_and_values(self):
        out = grouped_bar_chart({"g": {"x": 3.14159}}, title="T", fmt="{:.1f}")
        assert out.splitlines()[0] == "T"
        assert "3.1" in out

    def test_zero_values(self):
        out = grouped_bar_chart({"g": {"a": 0.0, "b": 0.0}})
        assert "█" not in out

    def test_labels_aligned(self):
        out = grouped_bar_chart({"g": {"short": 1.0, "muchlonger": 1.0}})
        lines = out.splitlines()[1:]
        assert lines[0].index("█") == lines[1].index("█")


class TestGroupedBarChart:
    def test_groups_rendered(self):
        out = grouped_bar_chart(
            {"Fin1": {"Native": 1.0, "EDC": 2.0}, "Fin2": {"Native": 1.5, "EDC": 1.0}}
        )
        assert "Fin1:" in out and "Fin2:" in out
        assert out.count("Native") == 2

    def test_global_scale(self):
        out = grouped_bar_chart(
            {"g1": {"a": 1.0}, "g2": {"a": 4.0}}, width=8
        )
        lines = [l for l in out.splitlines() if "█" in l or "a" in l]
        # g2's bar is full width; g1's is a quarter.
        assert lines[1].count("█") == 8

    def test_empty(self):
        assert grouped_bar_chart({}, title="T") == "T"


class TestLineSketch:
    def test_plots_points(self):
        out = line_sketch([0, 1, 2, 3], [0, 1, 2, 3], width=20, height=5)
        assert out.count("*") >= 4

    def test_monotone_series_descends_visually(self):
        out = line_sketch([0, 1], [0, 10], width=10, height=4)
        rows = [l for l in out.splitlines() if l.startswith("|")]
        # The max-y point is on the top row, min-y on the bottom row.
        assert "*" in rows[0]
        assert "*" in rows[-1]

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            line_sketch([1, 2], [1])

    def test_empty(self):
        assert line_sketch([], [], title="T") == "T"

    def test_constant_series(self):
        out = line_sketch([0, 1], [5, 5])
        assert "*" in out
