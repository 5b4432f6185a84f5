"""The ``python -m repro analyze`` command surface."""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

PACKAGE_ROOT = str(Path(repro.__file__).parent)


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "guest"],
            ["analyze", "guest", "--workload", "rsa", "--static-only"],
            ["analyze", "guest", "--design", "RF"],
            ["analyze", "lint"],
            ["analyze", "lint", "--rules"],
            ["analyze", "all", "--static-only"],
        ],
    )
    def test_commands_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.func)

    def test_mode_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analyze", "guest", "--workload", "nonsense"]
            )


class TestGuestMode:
    def test_rsa_is_flagged_and_confirmed(self, capsys):
        assert main(["analyze", "guest", "--workload", "rsa"]) == 0
        out = capsys.readouterr().out
        assert "secret-dependent-access" in out
        assert "verdict: expected (leak expected)" in out

    def test_rsa_ct_is_clean(self, capsys):
        assert main(["analyze", "guest", "--workload", "rsa-ct"]) == 0
        out = capsys.readouterr().out
        assert "verdict: expected (clean expected)" in out

    def test_static_only_skips_the_cross_check(self, capsys):
        assert (
            main(
                [
                    "analyze",
                    "guest",
                    "--workload",
                    "rsa",
                    "--static-only",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "correlated pages" not in out

    def test_json_payload_is_machine_readable(self, capsys):
        assert main(["analyze", "guest", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro/analyze/v1"
        assert payload["mode"] == "guest"
        assert payload["ok"] and payload["exit_code"] == 0
        by_name = {entry["workload"]: entry for entry in payload["guest"]}
        assert by_name["rsa"]["ok"] and by_name["rsa"]["expect_leak"]
        assert by_name["rsa-ct"]["ok"] and not by_name["rsa-ct"]["findings"]


class TestLintMode:
    def test_shipped_tree_is_clean(self, capsys):
        assert main(["analyze", "lint", PACKAGE_ROOT]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_rule_catalog_lists_every_rule(self, capsys):
        assert main(["analyze", "lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for name in (
            "facade-tlb-construction",
            "facade-walker-construction",
            "deterministic-sim",
            "frozen-event-dataclasses",
            "no-snapshot-mutation",
            "certifiable-hierarchy",
        ):
            assert name in out

    def test_violations_exit_with_the_lint_code(self, tmp_path, capsys):
        from repro.analysis.cli import EXIT_LINT_FINDINGS

        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main(["analyze", "lint", str(bad)]) == EXIT_LINT_FINDINGS
        out = capsys.readouterr().out
        assert "deterministic-sim" in out

    def test_json_reports_checked_files(self, capsys):
        assert main(["analyze", "lint", PACKAGE_ROOT, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro/analyze/v1"
        assert payload["mode"] == "lint"
        assert payload["lint"]["findings"] == []
        assert payload["lint"]["checked_files"] > 50


class TestAllMode:
    def test_combined_gate_passes_on_the_shipped_tree(self, capsys):
        assert main(["analyze", "all", PACKAGE_ROOT, "--static-only"]) == 0
        out = capsys.readouterr().out
        assert "analyze: OK" in out
        assert "0 lint findings" in out


class TestExitCodes:
    """The distinct failure codes CI dispatches on (docs/analysis.md)."""

    def test_codes_are_distinct_and_documented(self):
        from repro.analysis.cli import (
            EXIT_BOTH,
            EXIT_CONTRACT_VIOLATION,
            EXIT_LINT_FINDINGS,
        )

        assert (EXIT_CONTRACT_VIOLATION, EXIT_LINT_FINDINGS, EXIT_BOTH) == (
            2, 3, 4,
        )

    def test_all_mode_reports_lint_code_on_lint_only_failure(
        self, tmp_path, capsys
    ):
        from repro.analysis.cli import EXIT_LINT_FINDINGS

        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        code = main(
            ["analyze", "all", str(bad), "--static-only", "--json"]
        )
        assert code == EXIT_LINT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "all"
        assert not payload["ok"]
        assert payload["exit_code"] == EXIT_LINT_FINDINGS
        assert payload["lint"]["findings"]
        assert all(entry["ok"] for entry in payload["guest"])

    def test_all_mode_text_summary_names_the_exit_code(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main(["analyze", "all", str(bad), "--static-only"]) == 3
        assert "exit 3" in capsys.readouterr().out


class TestCertifyCLI:
    def test_sweep_label_renders_a_certificate(self, capsys):
        assert main(["certify", "RF+SA"]) == 0
        out = capsys.readouterr().out
        assert "static security certificate: RF+SA" in out
        assert "defended: 14/24" in out

    def test_json_certificate_is_schema_stamped(self, capsys):
        assert main(["certify", "RF+SP", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro/certificate/v1"
        assert payload["design"] == "RF+SP"
        assert len(payload["verdicts"]) == 24

    def test_multiple_targets_emit_a_list(self, capsys):
        assert main(["certify", "SA+SA", "RF+RF", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["design"] for entry in payload] == ["SA+SA", "RF+RF"]

    def test_spec_file_target(self, tmp_path, capsys):
        from repro.security import TLBKind, table4_spec

        path = tmp_path / "design.json"
        path.write_text(json.dumps(table4_spec(TLBKind.RF).to_dict()))
        assert main(["certify", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["design"] == "RF"
        assert payload["defended"] == 24

    @pytest.mark.parametrize(
        "text,field",
        [
            ('{"levles": []}', "'levels'"),
            ('{"levels": [{"kind": "SA", "sets": 4}]}', "'ways'"),
            ("[1, 2]", "'levels'"),
            ('{"levels": []}', "'levels'"),
            ('{"levels": [3]}', "levels[0]"),
            ('{"levels": [{"kind": "XX", "sets": 4, "ways": 2}]}', "'XX'"),
            ("{not json", "Expecting property name"),
        ],
    )
    def test_malformed_spec_is_a_one_line_error(
        self, monkeypatch, text, field
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        with pytest.raises(SystemExit) as raised:
            main(["certify", "-"])
        message = str(raised.value.code)
        assert message.startswith("certify: invalid spec '-': ")
        assert field in message
        assert "\n" not in message

    @pytest.mark.parametrize("name", ["missing.json", "directory.json"])
    def test_unreadable_spec_file_is_a_one_line_error(
        self, monkeypatch, tmp_path, name
    ):
        # Once, only a malformed spec was reported: a missing file (or a
        # directory) ended in an OSError traceback.
        (tmp_path / "directory.json").mkdir()
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as raised:
            main(["certify", name])
        message = str(raised.value.code)
        assert message.startswith(f"certify: invalid spec {name!r}: ")
        assert "\n" not in message

    def test_unknown_label_lists_the_catalog(self):
        with pytest.raises(SystemExit, match="known labels"):
            main(["certify", "XX+YY"])

    def test_no_target_is_an_error(self):
        with pytest.raises(SystemExit, match="--all / --gate"):
            main(["certify"])

    def test_gate_refill_leg_exits_zero(self, capsys):
        assert main(["certify", "--gate", "--legs", "refill"]) == 0
        assert "gate PASSED" in capsys.readouterr().out

    def test_gate_json_report(self, capsys):
        assert main(
            ["certify", "--gate", "--legs", "refill", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro/certify-gate/v1"
        assert payload["passed"] is True
