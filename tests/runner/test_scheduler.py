"""Tests for the parallel scheduler: retries, crash recovery, telemetry.

The toy experiments below register themselves into the global registry at
import time; under the ``fork`` start method the scheduler's workers
inherit them.  Their ``units`` return nothing unless explicitly enabled
through ``options``, so they are invisible to ``expand_units`` elsewhere.
"""

import json
import os
import signal
import time

import pytest

from repro.runner import (
    ChaosConfig,
    Experiment,
    InProcessExecutor,
    RunLog,
    Scheduler,
    register,
    run_all,
)
from repro.runner.scheduler import pick_cell


@register("toy-square")
class SquareExperiment(Experiment):
    def units(self, options):
        if "toy_square_values" not in options:
            return []
        return [
            self.unit(str(value), value=value)
            for value in options["toy_square_values"]
        ]

    @staticmethod
    def run(params):
        return params["value"] ** 2


@register("toy-crash-once")
class CrashOnceExperiment(Experiment):
    """SIGKILLs its own worker on the first attempt, succeeds after."""

    def units(self, options):
        if "toy_crash_marker" not in options:
            return []
        return [self.unit("cell", marker=options["toy_crash_marker"])]

    @staticmethod
    def run(params):
        marker = params["marker"]
        if not os.path.exists(marker):
            with open(marker, "w") as handle:
                handle.write("crashing")
            # Give the claim message time to flush before dying so the
            # queues stay healthy for the surviving workers.
            time.sleep(0.3)
            os.kill(os.getpid(), signal.SIGKILL)
        return "survived"


@register("toy-always-fails")
class AlwaysFailsExperiment(Experiment):
    def units(self, options):
        if "toy_fail_count" not in options:
            return []
        return [
            self.unit(str(index)) for index in range(options["toy_fail_count"])
        ]

    @staticmethod
    def run(params):
        raise RuntimeError("intentional test failure")


@register("toy-kill-first")
class KillFirstExperiment(Experiment):
    """Four cells in two affinity groups; cell 0 SIGKILLs its worker on
    its first attempt."""

    def units(self, options):
        if "toy_kill_marker" not in options:
            return []
        return [
            self.unit(str(index), index=index, marker=options["toy_kill_marker"])
            for index in range(4)
        ]

    def affinity(self, params):
        return "even" if params["index"] % 2 == 0 else "odd"

    @staticmethod
    def run(params):
        if params["index"] == 0 and not os.path.exists(params["marker"]):
            with open(params["marker"], "w") as handle:
                handle.write("killing")
            os.kill(os.getpid(), signal.SIGKILL)
        return params["index"] * 10


def read_events(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestScheduler:
    def test_runs_all_units(self):
        experiment = SquareExperiment()
        units = list(
            enumerate(experiment.units({"toy_square_values": range(20)}))
        )
        outcomes = Scheduler(jobs=4).run(units)
        assert sorted(outcomes) == list(range(20))
        for task_id, unit in units:
            assert outcomes[task_id].value == unit.params["value"] ** 2
            assert not outcomes[task_id].failed

    def test_empty_unit_list(self):
        assert Scheduler(jobs=2).run([]) == {}

    def test_worker_crash_is_retried_and_logged(self, tmp_path):
        marker = tmp_path / "crashed.marker"
        log_path = tmp_path / "run.jsonl"
        experiment = CrashOnceExperiment()
        units = list(
            enumerate(experiment.units({"toy_crash_marker": str(marker)}))
        )
        log = RunLog(log_path)
        scheduler = Scheduler(jobs=2, log=log)
        outcomes = scheduler.run(units)
        log.close()

        assert outcomes[0].value == "survived"
        assert not outcomes[0].failed
        assert marker.exists()
        assert scheduler.counters.worker_crashes >= 1
        assert scheduler.counters.retries >= 1

        events = {record["event"] for record in read_events(log_path)}
        assert "worker_crash" in events or "retry" in events
        done = [
            record
            for record in read_events(log_path)
            if record["event"] == "unit_done"
        ]
        assert done and done[-1]["status"] == "ok"

    def test_persistent_failure_marks_cell_failed(self, tmp_path):
        log_path = tmp_path / "run.jsonl"
        experiment = AlwaysFailsExperiment()
        units = list(enumerate(experiment.units({"toy_fail_count": 2})))
        log = RunLog(log_path)
        scheduler = Scheduler(jobs=2, max_retries=1, log=log)
        outcomes = scheduler.run(units)
        log.close()

        assert all(outcome.failed for outcome in outcomes.values())
        assert all(
            "intentional test failure" in outcome.error
            for outcome in outcomes.values()
        )
        # Other cells still complete: the run finished despite failures.
        assert len(outcomes) == 2
        statuses = [
            record["status"]
            for record in read_events(log_path)
            if record["event"] == "unit_done"
        ]
        assert statuses.count("failed") == 2

    def test_failure_does_not_block_other_cells(self):
        fails = AlwaysFailsExperiment()
        squares = SquareExperiment()
        units = list(
            enumerate(
                fails.units({"toy_fail_count": 1})
                + squares.units({"toy_square_values": range(6)})
            )
        )
        outcomes = Scheduler(jobs=3, max_retries=0).run(units)
        assert outcomes[0].failed
        assert [outcomes[i].value for i in range(1, 7)] == [
            0, 1, 4, 9, 16, 25,
        ]


class TestSerialExecution:
    def test_matches_parallel_values(self):
        experiment = SquareExperiment()
        units = list(
            enumerate(experiment.units({"toy_square_values": range(10)}))
        )
        serial = InProcessExecutor().run(units)
        parallel = Scheduler(jobs=3).run(units)
        assert {k: v.value for k, v in serial.items()} == {
            k: v.value for k, v in parallel.items()
        }

    def test_records_failures(self):
        experiment = AlwaysFailsExperiment()
        units = list(enumerate(experiment.units({"toy_fail_count": 1})))
        outcomes = InProcessExecutor().run(units)
        assert outcomes[0].failed
        assert "intentional test failure" in outcomes[0].error


class TestPickCell:
    """The pool's dispatch rule, as a pure function of what is ready."""

    GROUPS = {1: "a", 2: "b", 3: "a", 5: "b", 6: "c"}

    def test_without_groups_cells_go_in_enumeration_order(self):
        assert pick_cell([4, 7, 9], {}, None, set()) == 4
        assert pick_cell([], {}, None, set()) is None

    def test_a_worker_keeps_to_its_group(self):
        assert pick_cell([1, 2, 3, 4], self.GROUPS, "b", {"a"}) == 2
        assert pick_cell([3, 4, 5], self.GROUPS, "a", set()) == 3

    def test_then_the_first_cell_no_worker_holds(self):
        # Rule 2: no cell of its own group is ready.
        assert pick_cell([1, 2, 4], self.GROUPS, "c", {"a"}) == 2
        assert pick_cell([1, 4, 5], self.GROUPS, None, {"a", "b"}) == 4
        assert pick_cell([1, 6], self.GROUPS, None, {"a"}) == 6

    def test_then_the_group_with_the_most_ready_cells(self):
        assert pick_cell([1, 2, 3, 5, 6], self.GROUPS, "d", {"a", "b", "c"}) == 1
        assert pick_cell([1, 2, 5], self.GROUPS, None, {"a", "b"}) == 2
        # A tie goes to the group whose first cell comes first.
        assert pick_cell([2, 3, 1, 5], self.GROUPS, None, {"a", "b"}) == 2


class TestPrefetchedCells:
    def test_a_killed_workers_prefetched_cell_is_not_charged(self, tmp_path):
        """Worker 0's inbox holds cells 0 and 2 (one affinity group); cell
        0 SIGKILLs it.  Cell 0 is charged the crash and runs again; cell
        2 never started, so it runs on its first attempt."""
        experiment = KillFirstExperiment()
        units = list(enumerate(
            experiment.units({"toy_kill_marker": str(tmp_path / "killed")})
        ))
        scheduler = Scheduler(jobs=2)
        outcomes = scheduler.run(units)
        assert [outcomes[task_id].value for task_id in range(4)] == [0, 10, 20, 30]
        assert scheduler.counters.worker_crashes == 1
        assert [outcomes[task_id].attempts for task_id in range(4)] == [2, 1, 1, 1]
        assert [record["status"] for record in outcomes[0].history] == ["crash"]
        assert outcomes[0].history[0]["worker"] == 0
        assert outcomes[2].history == []

    def test_crashes_leave_the_serial_artifacts(self, tmp_path):
        """Every cell's first two attempts kill their worker, one worker
        runs both cells, so the second cell waits in the inbox behind each
        crash of the first.  Each cell is charged only its own two crashes
        (a third charge would spend its budget), and the artifacts are
        the serial run's."""
        def run(name, **kwargs):
            return run_all(
                filters=["table2*", "table5*"],
                results_dir=tmp_path / name,
                cache_dir=tmp_path / f"{name}-cache",
                progress=False,
                **kwargs,
            )

        serial = run("serial", jobs=1)
        chaotic = run(
            "pool",
            jobs=1,
            task_timeout=60.0,
            max_retries=2,
            chaos=ChaosConfig(modes=("crash",), rate=1.0, max_attempt=2),
        )
        assert serial.ok and chaotic.ok and chaotic.executor == "pool"
        assert chaotic.worker_crashes == 4 and chaotic.retries == 4
        assert chaotic.artifacts == serial.artifacts
        for artifact in serial.artifacts:
            assert (tmp_path / "pool" / artifact).read_bytes() == (
                tmp_path / "serial" / artifact
            ).read_bytes()


class TestSerialWatchdog:
    def test_a_timeout_puts_one_job_on_a_watched_worker(self, tmp_path):
        report = run_all(
            jobs=1,
            task_timeout=0.5,
            chaos=ChaosConfig(modes=("hang",), rate=1.0, hang_seconds=30.0),
            filters=["table5*"],
            results_dir=tmp_path / "results",
            cache_dir=tmp_path / "cache",
            progress=False,
        )
        assert report.ok and report.executor == "pool"
        assert report.watchdog_kills == 1 and report.retries == 1

    def test_one_job_without_a_timeout_stays_in_process(self, tmp_path):
        report = run_all(
            jobs=1,
            filters=["table5*"],
            results_dir=tmp_path / "results",
            cache_dir=tmp_path / "cache",
            progress=False,
        )
        assert report.ok and report.executor == "serial"
        with pytest.raises(ValueError, match="serial backend"):
            run_all(
                jobs=1,
                chaos=ChaosConfig(modes=("hang",)),
                filters=["table5*"],
                results_dir=tmp_path / "results",
                cache_dir=tmp_path / "cache",
                progress=False,
            )
