"""Tests for the terminal chart renderer."""

import pytest

from repro.perf import PerfSettings, Scenario, bar_chart, figure7_chart, run_cell
from repro.tlb import TLBKind


class TestBarChart:
    def test_bars_scale_to_the_peak(self):
        text = bar_chart("t", [("a", 1.0), ("b", 2.0)], width=10)
        lines = text.splitlines()
        assert lines[2].count("#") == 5
        assert lines[3].count("#") == 10

    def test_zero_values_render(self):
        text = bar_chart("t", [("a", 0.0)])
        assert "0.000" in text

    def test_unit_suffix(self):
        text = bar_chart("t", [("a", 1.5)], unit=" MPKI")
        assert "1.500 MPKI" in text


class TestFigure7Chart:
    @pytest.fixture(scope="class")
    def cells(self):
        settings = PerfSettings(spec_instructions=20_000, key_bits=64)
        return [
            run_cell(
                kind,
                "4W 32",
                Scenario(secure=True),
                rsa_runs=3,
                settings=settings,
            )
            for kind in (TLBKind.SA, TLBKind.RF)
        ]

    def test_groups_by_scenario(self, cells):
        text = figure7_chart(cells, "mpki")
        assert "MPKI -- SecRSA" in text
        assert "SA 4W 32" in text and "RF 4W 32" in text

    def test_ipc_metric(self, cells):
        text = figure7_chart(cells, "ipc")
        assert "IPC -- SecRSA" in text

    def test_unknown_metric_rejected(self, cells):
        with pytest.raises(ValueError):
            figure7_chart(cells, "watts")
