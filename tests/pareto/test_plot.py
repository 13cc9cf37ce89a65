"""Tests for the ASCII Pareto-front renderer."""

import pytest

from repro.pareto.front import ParetoFront
from repro.pareto.plot import ascii_front


@pytest.fixture
def factory_front():
    return ParetoFront.from_values([(0, 0), (1, 200), (3, 210), (5, 310)])


class TestAsciiFront:
    def test_contains_markers_and_axes(self, factory_front):
        plot = ascii_front(factory_front, title="factory")
        assert "factory" in plot
        assert "●" in plot
        assert "cost →" in plot

    def test_marker_count_at_least_distinct_cells(self, factory_front):
        plot = ascii_front(factory_front, width=40, height=12)
        assert plot.count("●") >= 3  # distinct grid cells for 4 points

    def test_axis_labels_show_extremes(self, factory_front):
        plot = ascii_front(factory_front)
        assert "310" in plot
        assert "5" in plot

    def test_staircase_shading_present(self, factory_front):
        assert "·" in ascii_front(factory_front)

    def test_empty_front(self):
        assert "(empty front)" in ascii_front(ParetoFront([]))

    def test_single_point_front(self):
        plot = ascii_front(ParetoFront.from_values([(0, 0)]))
        assert "●" in plot

    def test_dimensions_respected(self, factory_front):
        plot = ascii_front(factory_front, width=30, height=8, title="")
        rows = [line for line in plot.splitlines() if "|" in line]
        assert len(rows) == 8

    def test_custom_marker(self, factory_front):
        plot = ascii_front(factory_front, marker="X")
        assert "X" in plot and "●" not in plot
