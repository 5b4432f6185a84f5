"""Tests for the ``python -m repro`` command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_design_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table4", "--designs", "XX"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["table2"],
            ["table4", "--trials", "5"],
            ["table7", "--evaluate"],
            ["fig7", "--configs", "4W 32"],
            ["table5"],
            ["mitigations", "--trials", "5"],
            ["sweeps"],
            ["attack", "--designs", "SA"],
            ["covert", "--bits", "50"],
            ["hierarchy-sweep", "--trials", "2"],
            ["chaos", "sim", "--design", "RF+SA"],
        ],
    )
    def test_commands_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.func)

    def test_building_the_parser_imports_no_runner_module(self):
        """Every command imports what it uses when it runs: building the
        parser loads neither the runner nor numpy nor the simulator; a
        fresh interpreter shows what the parser needs."""
        probe = (
            "import sys\n"
            "from repro.cli import build_parser\n"
            "build_parser()\n"
            "heavy = ('numpy', 'repro.runner', 'repro.sim', 'repro.isa',"
            " 'repro.security')\n"
            "print(sorted(name for name in sys.modules if any("
            "name == package or name.startswith(package + '.')"
            " for package in heavy)))\n"
        )
        source = str(Path(repro.__file__).resolve().parent.parent)
        printed = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": source},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert printed.strip() == "[]"


    @pytest.mark.parametrize("count", ["0", "-1", "many"])
    @pytest.mark.parametrize(
        "command,flag",
        [
            pytest.param(command, "--trials", id=command)
            for command in (
                "table4",
                "table7",
                "mitigations",
                "hierarchy",
                "hierarchy-sweep",
                "largepages",
                "sweeps",
            )
        ]
        + [
            ("fig7", "--rsa-runs"),
            ("fig7", "--spec-instructions"),
            ("fig7", "--key-bits"),
            ("hierarchy-sweep", "--rsa-runs"),
            ("attack", "--key-bits"),
            ("covert", "--bits"),
        ],
    )
    def test_a_bad_trial_count_is_a_usage_error(
        self, capsys, command, flag, count
    ):
        with pytest.raises(SystemExit) as raised:
            main([command, flag, count])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--max-retries", "-1"),
            ("--max-retries", "two"),
            ("--task-timeout", "0"),
            ("--task-timeout", "-0.5"),
            ("--task-timeout", "soon"),
            ("--workers", "-1"),
        ],
    )
    def test_a_bad_run_all_budget_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as raised:
            main(["run-all", "--filter", "table5*", flag, value])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err
        assert "Traceback" not in err

    def test_a_task_timeout_under_work_stealing_is_a_usage_error(
        self, capsys, tmp_path
    ):
        # Work stealing has no watchdog: a hung cell's renewer keeps its
        # lease fresh, so the timeout would be silently ignored.
        with pytest.raises(SystemExit) as raised:
            main([
                "run-all", "--filter", "table5*", "--executor",
                "work-stealing", "--task-timeout", "5",
                "--results-dir", str(tmp_path / "results"),
                "--cache-dir", str(tmp_path / "cache"),
            ])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert "--task-timeout" in err
        assert "Traceback" not in err
        assert not (tmp_path / "results").exists()
        assert not (tmp_path / "cache").exists()

    def test_a_negative_chaos_worker_count_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["chaos", "runner", "--workers", "-1"])
        assert raised.value.code == 2
        assert "argument --workers:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["run-all", "--filter", "table5*", "--jobs", "-3"], "--jobs"),
            (["run-all", "--jobs", "0"], "--jobs"),
            (["serve", "--dispatchers", "-2"], "--dispatchers"),
            (["serve", "--dispatchers", "0"], "--dispatchers"),
            (
                ["worker", "board", "--poll-interval", "-1", "--idle-exit", "1"],
                "--poll-interval",
            ),
            (["worker", "board", "--poll-interval", "0"], "--poll-interval"),
            (
                ["bench", "--quick", "--events", "0", "--skip-cells", "--out", ""],
                "--events",
            ),
        ],
    )
    def test_a_number_a_command_cannot_honour_is_a_usage_error(
        self, capsys, argv, flag
    ):
        # Once, --jobs and --dispatchers below 1 were clamped to 1, a
        # negative --poll-interval crashed an idle worker, and --events 0
        # benchmarked empty replays.
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(argv)
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "must be a positive" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("idle_exit", ["0", "-1"])
    def test_a_non_positive_idle_exit_is_not_a_usage_error(self, idle_exit):
        args = build_parser().parse_args(
            ["worker", "board", "--idle-exit", idle_exit]
        )
        assert args.idle_exit == float(idle_exit)

    def test_run_all_budgets_parse(self):
        args = build_parser().parse_args(
            ["run-all", "--max-retries", "0", "--task-timeout", "0.5"]
        )
        assert (args.max_retries, args.task_timeout) == (0, 0.5)


class TestExecution:
    def test_table2_exits_zero_and_prints_table(self, capsys):
        assert main(["table2", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "TLB Prime + Probe" in out
        assert "exact match with the paper's Table 2: True" in out

    def test_table4_small(self, capsys):
        assert main(["table4", "--trials", "20"]) == 0
        out = capsys.readouterr().out
        assert "defended rows: SA=10/24, SP=14/24, RF=24/24" in out

    def test_table4_single_design(self, capsys):
        assert main(["table4", "--trials", "10", "--designs", "SA"]) == 0
        out = capsys.readouterr().out
        assert "== SA TLB ==" in out and "== RF TLB ==" not in out

    def test_table5(self, capsys):
        assert main(["table5"]) == 0
        out = capsys.readouterr().out
        assert "fit quality" in out

    def test_table7_listing(self, capsys):
        assert main(["table7"]) == 0
        out = capsys.readouterr().out
        assert "TLB Flush + Flush" in out

    def test_fig7_slice(self, capsys):
        assert (
            main(
                [
                    "fig7",
                    "--configs",
                    "4W 32",
                    "--rsa-runs",
                    "3",
                    "--spec-instructions",
                    "20000",
                    "--designs",
                    "SA",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "MPKI" in out

    def test_attack(self, capsys):
        assert main(["attack", "--designs", "SA", "--key-bits", "32"]) == 0
        out = capsys.readouterr().out
        assert "FULL KEY RECOVERED" in out

    def test_covert(self, capsys):
        assert main(["covert", "--bits", "40", "--designs", "SA"]) == 0
        out = capsys.readouterr().out
        assert "capacity" in out

    def test_mitigations(self, capsys):
        assert main(["mitigations", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        assert "Sanctum" in out


class TestExtensionCommands:
    def test_hierarchy_command(self, capsys):
        assert main(["hierarchy", "--trials", "8"]) == 0
        out = capsys.readouterr().out
        assert "RF L1 + RF L2" in out

    def test_hierarchy_sweep_command(self, capsys):
        assert main(
            ["hierarchy-sweep", "--trials", "2", "--rsa-runs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "hierarchy sweep" in out
        assert "RF+RF+pwc" in out
        assert "refill-leakage cross-check" in out

    def test_chaos_design_choices_include_hierarchies(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "sim", "--design", "XX+SA"])
        args = build_parser().parse_args(
            ["chaos", "sim", "--design", "SA+SA"]
        )
        assert args.design == "SA+SA"

    def test_largepages_command(self, capsys):
        assert main(["largepages", "--trials", "8"]) == 0
        out = capsys.readouterr().out
        assert "2 MiB" in out

    def test_table7_without_evaluation_is_fast(self, capsys):
        assert main(["table7"]) == 0
        out = capsys.readouterr().out
        assert "measured defence" not in out
