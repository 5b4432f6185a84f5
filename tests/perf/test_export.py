"""Tests for the CSV exporters."""

import csv

import pytest

from repro.perf import PerfSettings, Scenario, run_cell
from repro.perf.export import export_figure7_csv, export_table4_csv
from repro.model.extended import invalidation_only_vulnerabilities
from repro.model.table2 import table2_vulnerabilities
from repro.security import (
    EvaluationConfig,
    SecurityEvaluator,
    TLBKind,
    table4_spec,
)


def sa_results(trials, rows):
    """Table 4's SA cells for ``rows`` at ``trials``."""
    evaluator = SecurityEvaluator(EvaluationConfig(trials=trials))
    return [
        evaluator.evaluate_vulnerability(row, table4_spec(TLBKind.SA))
        for row in rows
    ]


class TestFigure7Export:
    @pytest.fixture(scope="class")
    def cells(self):
        settings = PerfSettings(spec_instructions=20_000, key_bits=64)
        from repro.workloads.spec import POVRAY

        return [
            run_cell(
                TLBKind.SA,
                "4W 32",
                Scenario(secure=False, spec=POVRAY),
                rsa_runs=3,
                settings=settings,
            )
        ]

    def test_rows_and_header(self, cells, tmp_path):
        path = tmp_path / "fig7.csv"
        rows = export_figure7_csv(cells, path)
        assert rows == 3  # RSA + povray + total
        with path.open() as handle:
            read = list(csv.DictReader(handle))
        assert len(read) == rows
        assert read[0]["tlb"] == "SA"
        assert {"RSA", "povray", "total"} == {row["process"] for row in read}

    def test_numeric_fields_parse(self, cells, tmp_path):
        path = tmp_path / "fig7.csv"
        export_figure7_csv(cells, path)
        with path.open() as handle:
            for row in csv.DictReader(handle):
                assert float(row["ipc"]) > 0
                assert int(row["instructions"]) > 0


class TestTable4Export:
    def test_export_contains_every_row(self, tmp_path):
        table = {TLBKind.SA: sa_results(5, table2_vulnerabilities())}
        path = tmp_path / "table4.csv"
        rows = export_table4_csv(table, path)
        assert rows == 24
        with path.open() as handle:
            read = list(csv.DictReader(handle))
        assert len(read) == 24
        defended = sum(int(row["defended"]) for row in read)
        assert defended == 10

    def test_extended_rows_have_empty_theory_fields(self, tmp_path):
        table = {
            TLBKind.SA: sa_results(3, invalidation_only_vulnerabilities()[:4])
        }
        path = tmp_path / "ext.csv"
        export_table4_csv(table, path)
        with path.open() as handle:
            for row in csv.DictReader(handle):
                assert row["capacity_theory"] == ""
