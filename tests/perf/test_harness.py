"""Tests for the Figure 7 harness: configurations, scenarios, shapes."""

import pytest

from repro.perf import (
    PerfSettings,
    Scenario,
    all_configurations,
    all_scenarios,
    config_by_label,
    configuration_count,
    format_figure7,
    headline_ratios,
    labels_for,
    run_cell,
)
from repro.tlb import TLBKind
from repro.workloads.spec import OMNETPP, POVRAY

SETTINGS = PerfSettings(spec_instructions=60_000, key_bits=64)


class TestConfigurations:
    def test_nineteen_total(self):
        assert configuration_count() == 19

    def test_sa_has_seven_including_1e(self):
        assert labels_for(TLBKind.SA) == (
            "1E",
            "FA 32",
            "2W 32",
            "4W 32",
            "FA 128",
            "2W 128",
            "4W 128",
        )

    def test_secure_designs_skip_1e(self):
        assert "1E" not in labels_for(TLBKind.SP)
        assert "1E" not in labels_for(TLBKind.RF)

    def test_labels_decode(self):
        assert config_by_label("4W 32").ways == 4
        assert config_by_label("FA 128").fully_associative
        assert config_by_label("1E").entries == 1
        with pytest.raises(ValueError):
            config_by_label("3Z 7")

    def test_all_configurations_well_formed(self):
        for kind, label, config in all_configurations():
            assert config.label() == label
            assert config.entries in (1, 32, 128)


class TestScenarios:
    def test_paper_has_ten_scenarios(self):
        scenarios = all_scenarios()
        assert len(scenarios) == 10
        labels = {scenario.label for scenario in scenarios}
        assert "RSA" in labels and "SecRSA" in labels
        assert "RSA+omnetpp" in labels and "SecRSA+cactusADM" in labels


class TestCells:
    def test_run_cell_reports_rsa_and_total(self):
        cell = run_cell(
            TLBKind.SA, "4W 32", Scenario(secure=False), rsa_runs=5,
            settings=SETTINGS,
        )
        assert cell.rsa.instructions > 0
        assert cell.total.instructions >= cell.rsa.instructions
        assert 0 < cell.total.ipc <= 1.0

    def test_rsa_alone_has_tiny_mpki(self):
        # "RSA routine is relatively small, so it experiences very few
        # MPKIs" (Section 6.3) -- its working set is 3 pages.
        cell = run_cell(
            TLBKind.SA, "4W 32", Scenario(secure=False), rsa_runs=5,
            settings=SETTINGS,
        )
        assert cell.rsa.mpki < 1.0

    def test_spec_scenario_runs_both_processes(self):
        cell = run_cell(
            TLBKind.SA,
            "4W 32",
            Scenario(secure=False, spec=POVRAY),
            rsa_runs=5,
            settings=SETTINGS,
        )
        assert "povray" in cell.results
        assert cell.results["povray"].instructions > 0


class TestFigure7Shapes:
    """The qualitative claims of Sections 6.3-6.5."""

    def _cell(self, kind, label, secure=True, spec=OMNETPP):
        return run_cell(
            kind,
            label,
            Scenario(secure=secure, spec=spec),
            rsa_runs=5,
            settings=SETTINGS,
        )

    def test_larger_tlbs_have_lower_mpki(self):
        small = self._cell(TLBKind.SA, "4W 32")
        large = self._cell(TLBKind.SA, "4W 128")
        assert large.total.mpki < small.total.mpki
        assert large.total.ipc > small.total.ipc

    def test_single_entry_is_catastrophic(self):
        # Disabling the TLB (approximated by 1E) costs far more than any
        # secure design (Section 6.3).
        one_entry = self._cell(TLBKind.SA, "1E")
        baseline = self._cell(TLBKind.SA, "4W 32")
        assert one_entry.total.ipc < 0.7 * baseline.total.ipc

    def test_sp_has_markedly_higher_mpki_than_sa(self):
        sa = self._cell(TLBKind.SA, "4W 32")
        sp = self._cell(TLBKind.SP, "4W 32")
        assert sp.total.mpki > 1.5 * sa.total.mpki

    def test_rf_mpki_is_close_to_sa(self):
        sa = self._cell(TLBKind.SA, "4W 32")
        rf = self._cell(TLBKind.RF, "4W 32")
        assert rf.total.mpki == pytest.approx(sa.total.mpki, rel=0.25)
        assert rf.total.mpki < 0.7 * self._cell(TLBKind.SP, "4W 32").total.mpki

    def test_rf_protection_only_perturbs_the_victim(self):
        plain = self._cell(TLBKind.RF, "4W 32", secure=False)
        secured = self._cell(TLBKind.RF, "4W 32", secure=True)
        # Enabling the secure region costs the RSA process a little, not
        # an SP-like factor.
        assert secured.rsa.mpki <= plain.rsa.mpki * 20 + 1.0

    def test_headline_ratios_report_expected_keys(self):
        cells = [
            self._cell(TLBKind.SA, "4W 32"),
            self._cell(TLBKind.SP, "4W 32"),
            self._cell(TLBKind.RF, "4W 32"),
        ]
        ratios = headline_ratios(cells)
        assert ratios["sp_over_sa_mpki:4W 32"] > 1.3
        assert 0.7 < ratios["rf_over_sa_mpki:4W 32"] < 1.4

    def test_format_figure7(self):
        cell = self._cell(TLBKind.SA, "4W 32")
        text = format_figure7([cell])
        assert "4W 32" in text and "MPKI" in text
