"""The bundled RSA victims: the leaky one is flagged, the repair is clean,
and the dynamic cross-check agrees with the static verdict."""

from __future__ import annotations

import pytest

from repro.analysis.dynamic import cross_check, secret_correlation, trace_pages
from repro.analysis.taint import analyze_program
from repro.analysis.workloads import (
    EXPONENT_PAGE,
    GUEST_WORKLOADS,
    RP_PAGE,
    TP_PAGE,
    XP_PAGE,
)
from repro.isa import assemble


def static_report(name: str):
    workload = GUEST_WORKLOADS[name]
    return workload, analyze_program(
        assemble(workload.source()), name=name
    )


class TestStaticVerdicts:
    def test_rsa_square_multiply_is_flagged(self):
        _workload, report = static_report("rsa")
        assert not report.clean
        kinds = report.by_kind()
        assert kinds.get("secret-branch", 0) >= 1
        assert kinds.get("secret-dependent-access", 0) >= 1

    def test_rsa_swap_touch_is_found_with_its_page(self):
        _workload, report = static_report("rsa")
        swap = [
            finding
            for finding in report.findings
            if finding.kind == "secret-dependent-access"
            and TP_PAGE in finding.pages
        ]
        assert swap, "the bit-conditional tp swap must be flagged"
        assert all(
            finding.sources == ("symbol:exponent",) for finding in swap
        )
        # The representative path ends branch -> sink.
        for finding in swap:
            assert finding.path[-1] == finding.pc
            assert len(finding.path) >= 3

    def test_rsa_constant_time_is_clean(self):
        _workload, report = static_report("rsa-ct")
        assert report.clean

    def test_expectations_recorded_on_the_workloads(self):
        assert GUEST_WORKLOADS["rsa"].expect_leak
        assert not GUEST_WORKLOADS["rsa-ct"].expect_leak


class TestDynamicCrossCheck:
    def test_traces_are_deterministic(self):
        workload = GUEST_WORKLOADS["rsa"]
        first = trace_pages(workload, workload.exponents[0])
        second = trace_pages(workload, workload.exponents[0])
        assert first.pages == second.pages
        assert first.accesses == second.accesses > 0

    def test_rsa_findings_are_confirmed_by_traces(self):
        workload, report = static_report("rsa")
        cross = cross_check(workload, report)
        assert cross.leaks_dynamically
        assert cross.confirmed_count >= 1
        assert cross.all_confirmed
        assert TP_PAGE in cross.correlated_pages

    def test_rsa_ct_shows_no_correlated_pages(self):
        workload, report = static_report("rsa-ct")
        cross = cross_check(workload, report)
        assert not cross.leaks_dynamically
        assert cross.correlated_pages == ()
        assert cross.checked == ()

    def test_correlation_isolates_the_conditional_pages(self):
        correlation = secret_correlation(GUEST_WORKLOADS["rsa"])
        # The square path touches rp/xp every window under every
        # exponent via loads; only the multiply/swap traffic varies.
        assert len(set(correlation[TP_PAGE])) > 1
        assert len(set(correlation[EXPONENT_PAGE])) == 1

    def test_ct_variant_touches_the_same_pages_uniformly(self):
        correlation = secret_correlation(GUEST_WORKLOADS["rsa-ct"])
        for page in (RP_PAGE, XP_PAGE, TP_PAGE, EXPONENT_PAGE):
            counts = correlation[page]
            assert len(set(counts)) == 1, (hex(page), counts)

    @pytest.mark.parametrize("design", ["SA", "SP", "RF"])
    def test_cross_check_confirms_under_every_design(self, design):
        from repro.tlb import TLBKind

        workload, report = static_report("rsa")
        cross = cross_check(workload, report, kind=TLBKind[design])
        assert cross.leaks_dynamically
        assert cross.confirmed_count >= 1
