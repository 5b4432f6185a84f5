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

from repro.runner import (
    Experiment,
    InProcessExecutor,
    RunLog,
    Scheduler,
    register,
)


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
