"""Tests for the Table 5 area model."""

import pytest

from repro.perf.area import (
    AreaModel,
    BLOCK_RAMS,
    DSPS,
    PAPER_TABLE5,
)
from repro.tlb import TLBKind


@pytest.fixture(scope="module")
def model():
    return AreaModel()


class TestPaperData:
    def test_nineteen_synthesis_points(self):
        assert len(PAPER_TABLE5) == 19

    def test_constants(self):
        assert BLOCK_RAMS == 24 and DSPS == 15

    def test_baseline_values_match_paper(self):
        assert PAPER_TABLE5[(TLBKind.SA, "4W 32")] == (36043, 22765)

    def test_paper_deltas_match_text(self):
        # Section 6.6: 4W32 SP is +140 LUTs / +33 registers; RF +2223/+1253.
        base_luts, base_regs = PAPER_TABLE5[(TLBKind.SA, "4W 32")]
        sp_luts, sp_regs = PAPER_TABLE5[(TLBKind.SP, "4W 32")]
        rf_luts, rf_regs = PAPER_TABLE5[(TLBKind.RF, "4W 32")]
        assert (sp_luts - base_luts, sp_regs - base_regs) == (140, 33)
        assert (rf_luts - base_luts, rf_regs - base_regs) == (2223, 1253)


class TestModelFit:
    def test_fit_quality(self, model):
        worst_luts, worst_registers = model.max_relative_error()
        assert worst_luts < 0.05
        assert worst_registers < 0.15

    def test_registers_scale_with_entries(self, model):
        small = model.predict(TLBKind.SA, "FA 32")
        large = model.predict(TLBKind.SA, "FA 128")
        assert large.registers > small.registers + 8_000

    def test_fully_associative_costs_more_luts(self, model):
        fa = model.predict(TLBKind.SA, "FA 128")
        sa = model.predict(TLBKind.SA, "4W 128")
        assert fa.luts > sa.luts

    def test_sp_overhead_is_marginal(self, model):
        luts, registers = model.overhead_fraction(TLBKind.SP, "4W 32")
        assert abs(luts) < 0.02
        assert abs(registers) < 0.02

    def test_rf_overhead_is_a_few_percent(self, model):
        # The paper: ~6.2% more LUTs / 5.5% more registers at 4W 32, and
        # "about 8% more logic" overall.
        luts, registers = model.overhead_fraction(TLBKind.RF, "4W 32")
        assert 0.02 < luts < 0.10
        assert 0.0 < registers < 0.10

    def test_rf_costs_more_than_sp_everywhere(self, model):
        for label in ("FA 32", "2W 32", "4W 32", "FA 128", "2W 128", "4W 128"):
            rf = model.predict(TLBKind.RF, label)
            sp = model.predict(TLBKind.SP, label)
            assert rf.luts > sp.luts

    def test_table5_rendering(self, model):
        text = model.table5()
        assert "4W 32" in text
        assert "Block RAMs = 24" in text
        assert text.count("\n") >= 20

    def test_delta_against_baseline(self, model):
        baseline = model.baseline()
        delta = model.predict(TLBKind.RF, "4W 32").delta(baseline)
        assert delta.luts > 0
