"""End-to-end tests for ``run_all``: determinism, caching, artifacts.

Trial counts are tiny -- determinism does not depend on fidelity, since
every cell seeds its RNG from its own identity.
"""

import dataclasses
import json

import pytest

from repro.runner import ChaosConfig, run_all
from repro.sim.kernel import KernelCounts

#: Reduced-fidelity knobs shared by the tests below.
SMALL = {"table4_trials": 4}


def read_events(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


@pytest.fixture(scope="module")
def serial_dir(tmp_path_factory):
    results = tmp_path_factory.mktemp("serial")
    report = run_all(
        jobs=1,
        use_cache=False,
        filters=["table4*"],
        results_dir=results,
        options=SMALL,
        progress=False,
    )
    assert report.ok
    return results


class TestDeterminism:
    def test_parallel_table4_is_byte_identical_to_serial(
        self, serial_dir, tmp_path
    ):
        report = run_all(
            jobs=3,
            use_cache=False,
            filters=["table4*"],
            results_dir=tmp_path,
            options=SMALL,
            progress=False,
        )
        assert report.ok
        for name in ("table4_full.txt", "table4_full.csv"):
            assert (tmp_path / name).read_bytes() == (
                serial_dir / name
            ).read_bytes(), f"{name} differs between --jobs 1 and --jobs 3"

    def test_repeated_serial_runs_are_identical(self, serial_dir, tmp_path):
        run_all(
            jobs=1,
            use_cache=False,
            filters=["table4*"],
            results_dir=tmp_path,
            options=SMALL,
            progress=False,
        )
        assert (tmp_path / "table4_full.txt").read_bytes() == (
            serial_dir / "table4_full.txt"
        ).read_bytes()


class TestCaching:
    def test_warm_cache_hits_over_ninety_percent(self, tmp_path):
        kwargs = dict(
            jobs=2,
            filters=["table2*", "table5*"],
            results_dir=tmp_path / "results",
            cache_dir=tmp_path / "cache",
            progress=False,
        )
        cold = run_all(**kwargs)
        assert cold.ok and cold.cache_hits == 0

        warm = run_all(**kwargs)
        assert warm.ok
        assert warm.cache_hit_rate >= 0.9
        # The acceptance criterion reads the rate from the JSONL run log.
        run_end = read_events(tmp_path / "results" / "run_log.jsonl")[-1]
        assert run_end["event"] == "run_end"
        assert run_end["cache_hit_rate"] >= 0.9

    def test_no_cache_flag_skips_the_cache(self, tmp_path):
        kwargs = dict(
            jobs=1,
            use_cache=False,
            filters=["table2*"],
            results_dir=tmp_path / "results",
            cache_dir=tmp_path / "cache",
            progress=False,
        )
        run_all(**kwargs)
        second = run_all(**kwargs)
        assert second.cache_hits == 0
        assert not (tmp_path / "cache").exists()

    def test_option_change_invalidates_cached_cells(self, tmp_path):
        kwargs = dict(
            jobs=1,
            filters=["table4/SA/*"],
            results_dir=tmp_path / "results",
            cache_dir=tmp_path / "cache",
            progress=False,
        )
        run_all(options={"table4_trials": 3}, **kwargs)
        changed = run_all(options={"table4_trials": 4}, **kwargs)
        assert changed.cache_hits == 0


class TestExecutorArguments:
    @pytest.mark.parametrize(
        "arguments,message",
        [
            (
                {"executor": "work-stealing", "workers": 1, "max_retries": -1},
                "max_retries must be a non-negative integer",
            ),
            ({"max_retries": -1}, "max_retries must be a non-negative integer"),
            ({"max_retries": 1.5}, "max_retries must be a non-negative integer"),
            (
                {"jobs": 2, "task_timeout": 0},
                "task_timeout must be a positive number of seconds",
            ),
            (
                {"jobs": 2, "task_timeout": -1.0},
                "task_timeout must be a positive number of seconds",
            ),
            ({"executor": "threads"}, "unknown executor 'threads'"),
            (
                {"executor": "work-stealing", "workers": -1},
                "workers must be a non-negative integer",
            ),
            (
                {"executor": "work-stealing", "task_timeout": 5.0},
                "task_timeout arms the pool's watchdog",
            ),
            (
                {"jobs": 2, "chaos": ChaosConfig(modes=("stale-lease",))},
                "the pool backend does not implement fault mode stale-lease",
            ),
            (
                {"executor": "work-stealing", "chaos": ChaosConfig(modes=("hang",))},
                "the work-stealing backend does not implement fault mode hang",
            ),
            (
                {"jobs": 1, "chaos": ChaosConfig(poison_idents=("table5/x",))},
                "the serial backend does not implement fault mode poison",
            ),
        ],
    )
    def test_a_bad_budget_is_refused_before_any_cell(
        self, tmp_path, arguments, message
    ):
        # Once, a budget of -1 quarantined the cell unrun (zero attempts)
        # and a zero timeout had the watchdog kill every cell.
        with pytest.raises(ValueError, match=message):
            run_all(
                filters=["table5*"],
                results_dir=tmp_path / "results",
                cache_dir=tmp_path / "cache",
                progress=False,
                **arguments,
            )
        assert not (tmp_path / "results").exists()
        assert not (tmp_path / "cache").exists()

    def test_zero_retries_still_runs_each_cell_once(self, tmp_path):
        report = run_all(
            executor="work-stealing",
            workers=1,
            max_retries=0,
            filters=["table5*"],
            results_dir=tmp_path / "results",
            cache_dir=tmp_path / "cache",
            progress=False,
        )
        assert report.ok
        assert report.quarantined == 0


class TestArtifacts:
    def test_partial_experiment_writes_no_artifact(self, tmp_path):
        report = run_all(
            jobs=1,
            use_cache=False,
            filters=["table4/SA/*"],
            results_dir=tmp_path,
            options=SMALL,
            progress=False,
        )
        assert report.ok
        assert report.artifacts == []
        assert not (tmp_path / "table4_full.txt").exists()

    def test_run_log_schema(self, serial_dir):
        events = read_events(serial_dir / "run_log.jsonl")
        assert events[0]["event"] == "run_start"
        assert events[-1]["event"] == "run_end"
        done = [e for e in events if e["event"] == "unit_done"]
        assert len(done) == 72
        for record in done:
            assert record["experiment"] == "table4"
            assert record["status"] == "ok"
        for field in (
            "cells_per_second",
            "cache_hit_rate",
            "worker_utilization",
            "elapsed",
        ):
            assert field in events[-1]

    def test_run_end_carries_every_kernel_count(self, tmp_path):
        report = run_all(
            jobs=1,
            use_cache=False,
            filters=["fig7/grid/SA/4W 32/RSA/50"],
            results_dir=tmp_path,
            progress=False,
        )
        assert report.ok
        run_end = read_events(tmp_path / "run_log.jsonl")[-1]
        assert run_end["event"] == "run_end"
        for count in dataclasses.fields(KernelCounts):
            name = f"kernel_{count.name}"
            assert run_end[name] == getattr(report.kernel, count.name), name
            assert getattr(report, name) == run_end[name], name
        assert report.kernel_run_hits > 0
