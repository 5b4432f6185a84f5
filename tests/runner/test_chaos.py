"""Chaos hardening end-to-end: every runner fault mode, through run_all.

Each test aims one deterministic fault mode (:mod:`repro.faults.chaos`)
at the cheap probe experiment and asserts the matching hardening
mechanism engaged *and* the run still converged to correct artifacts.
The interrupt tests register their own toy experiment, which declares
the marker-file option it is gated on.
"""

import json

import pytest

from repro.faults import ChaosConfig
from repro.faults.campaign import PROBE_EXPERIMENT, ensure_probe_experiment
from repro.runner import Experiment, register, run_all
from repro.runner.registry import REGISTRY, Kind, Option

ensure_probe_experiment()

CELLS = 4


def probe_kwargs(**extra):
    kwargs = dict(
        jobs=2,
        filters=[f"{PROBE_EXPERIMENT}/*"],
        options={"chaos_probe_cells": CELLS},
        progress=False,
        use_cache=False,
    )
    kwargs.update(extra)
    return kwargs


def probe_values(results_dir):
    return json.loads((results_dir / f"{PROBE_EXPERIMENT}.json").read_text())


EXPECTED = [
    {"index": index, "value": (index * 2654435761) % 1000003}
    for index in range(CELLS)
]


def read_events(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestWorkerChaos:
    def test_watchdog_kills_hung_workers_and_run_finishes(self, tmp_path):
        report = run_all(
            results_dir=tmp_path,
            chaos=ChaosConfig(
                seed=1, modes=("hang",), rate=1.0, hang_seconds=60.0
            ),
            task_timeout=0.5,
            **probe_kwargs(),
        )
        assert report.watchdog_kills >= 1
        assert report.ok
        assert probe_values(tmp_path) == EXPECTED
        events = {e["event"] for e in read_events(tmp_path / "run_log.jsonl")}
        assert "watchdog_kill" in events

    def test_crashed_workers_are_respawned_and_cells_retried(self, tmp_path):
        report = run_all(
            results_dir=tmp_path,
            chaos=ChaosConfig(seed=2, modes=("crash",), rate=1.0),
            **probe_kwargs(),
        )
        assert report.worker_crashes >= 1
        assert report.retries >= 1
        assert report.ok
        assert probe_values(tmp_path) == EXPECTED

    def test_corrupt_result_payloads_are_rejected_and_recomputed(
        self, tmp_path
    ):
        report = run_all(
            results_dir=tmp_path,
            chaos=ChaosConfig(seed=3, modes=("corrupt-result",), rate=1.0),
            **probe_kwargs(),
        )
        assert report.corrupt_results >= 1
        assert report.ok
        assert probe_values(tmp_path) == EXPECTED
        events = {e["event"] for e in read_events(tmp_path / "run_log.jsonl")}
        assert "corrupt_result" in events

    def test_poison_cell_is_quarantined_not_fatal(self, tmp_path):
        poisoned = f"{PROBE_EXPERIMENT}/cell-00"
        report = run_all(
            results_dir=tmp_path,
            chaos=ChaosConfig(seed=4, modes=(), poison_idents=(poisoned,)),
            **probe_kwargs(),
        )
        assert not report.ok
        assert report.failed == [poisoned]
        assert report.completed == CELLS - 1
        # No artifact from a partial experiment, but a manifest instead.
        assert not (tmp_path / f"{PROBE_EXPERIMENT}.json").exists()
        manifest = json.loads((tmp_path / "failed_cells.json").read_text())
        assert manifest["interrupted"] is False
        assert [cell["ident"] for cell in manifest["failed"]] == [poisoned]
        assert "poisoned" in manifest["failed"][0]["error"]


class TestOneFailurePolicy:
    """Both backends retry and quarantine by one policy, on one record."""

    def test_a_poison_cell_leaves_the_same_history_under_each_backend(
        self, tmp_path
    ):
        poisoned = f"{PROBE_EXPERIMENT}/cell-00"
        backends = {
            "pool": {},
            "work-stealing": dict(
                executor="work-stealing",
                workers=2,
                executor_options=dict(
                    lease_ttl=1.0, heartbeat_interval=0.25,
                    poll_interval=0.05, fallback_after=120.0,
                ),
            ),
        }
        histories = {}
        for backend, extra in backends.items():
            results = tmp_path / backend
            report = run_all(
                results_dir=results,
                cache_dir=tmp_path / f"{backend}-cache",
                chaos=ChaosConfig(seed=4, poison_idents=(poisoned,)),
                **probe_kwargs(**extra),
            )
            assert report.failed == [poisoned]
            assert report.quarantined == 1
            assert report.retries == 2
            manifest = json.loads((results / "failed_cells.json").read_text())
            (entry,) = manifest["failed"]
            assert entry["attempts"] == 3
            histories[backend] = entry["history"]

        pool, stealing = histories["pool"], histories["work-stealing"]
        assert {frozenset(record) for record in pool} == {
            frozenset(record) for record in stealing
        } == {frozenset(
            ("attempt", "worker", "status", "error", "backoff", "not_before")
        )}
        for history in (pool, stealing):
            assert [record["attempt"] for record in history] == [1, 2, 3]
            assert [record["status"] for record in history] == ["error"] * 3
            assert all("poisoned" in record["error"] for record in history)
            # Backoff only before a retry; the last failure quarantines.
            assert [record["backoff"] > 0 for record in history] == [
                True, True, False,
            ]


class TestChaosDeterminism:
    """Satellite: chaos may cost time, never bytes."""

    @pytest.mark.parametrize("chaos_seed", [11, 12])
    def test_crash_chaos_run_is_byte_identical_to_clean(
        self, tmp_path, chaos_seed
    ):
        clean = tmp_path / "clean"
        run_all(results_dir=clean, **probe_kwargs())
        chaotic = tmp_path / f"chaos-{chaos_seed}"
        report = run_all(
            results_dir=chaotic,
            chaos=ChaosConfig(
                seed=chaos_seed, modes=("crash",), rate=1.0
            ),
            **probe_kwargs(),
        )
        assert report.ok
        name = f"{PROBE_EXPERIMENT}.json"
        assert (chaotic / name).read_bytes() == (clean / name).read_bytes()


@register("toy-interrupt")
class InterruptOnceExperiment(Experiment):
    """Raises KeyboardInterrupt on one cell, once (marker-file gated)."""

    declared_options = (
        # No marker, no cells.
        Option("toy_interrupt_marker", None, Kind(
            "a path or null", lambda value: value is None or isinstance(value, str)
        )),
    )

    def units(self, options):
        if options["toy_interrupt_marker"] is None:
            return []
        return [
            self.unit(
                f"cell-{index:02d}",
                index=index,
                marker=options["toy_interrupt_marker"],
            )
            for index in range(CELLS)
        ]

    @staticmethod
    def run(params):
        import os

        if params["index"] == 2 and not os.path.exists(params["marker"]):
            with open(params["marker"], "w") as handle:
                handle.write("interrupting")
            raise KeyboardInterrupt
        return params["index"] ** 2

    def assemble(self, values, options):
        return values


assert "toy-interrupt" in REGISTRY


class TestGracefulInterrupt:
    """Satellite: Ctrl-C yields a partial report, a manifest, and resume."""

    def interrupt_kwargs(self, marker, **extra):
        kwargs = dict(
            jobs=1,
            filters=["toy-interrupt/*"],
            options={"toy_interrupt_marker": str(marker)},
            progress=False,
            use_cache=False,
        )
        kwargs.update(extra)
        return kwargs

    def test_interrupt_reports_partially_with_manifest(self, tmp_path):
        marker = tmp_path / "interrupt.marker"
        report = run_all(
            results_dir=tmp_path / "results",
            **self.interrupt_kwargs(marker),
        )
        assert report.interrupted
        assert not report.ok
        assert report.completed == 2  # cells 0 and 1 ran before Ctrl-C
        assert report.failed == []
        manifest = json.loads(
            (tmp_path / "results" / "failed_cells.json").read_text()
        )
        assert manifest["interrupted"] is True
        assert manifest["failed"] == []
        assert manifest["missing"] == [
            "toy-interrupt/cell-02",
            "toy-interrupt/cell-03",
        ]
        events = read_events(tmp_path / "results" / "run_log.jsonl")
        kinds = [e["event"] for e in events]
        assert "interrupted" in kinds
        assert kinds[-1] == "run_end"
        assert events[-1]["interrupted"] is True

    def test_interrupted_run_resumes_from_cache_byte_identical(
        self, tmp_path
    ):
        marker = tmp_path / "interrupt.marker"
        results = tmp_path / "results"
        cache = tmp_path / "cache"
        first = run_all(
            results_dir=results,
            cache_dir=cache,
            **self.interrupt_kwargs(marker, use_cache=True),
        )
        assert first.interrupted

        second = run_all(
            results_dir=results,
            cache_dir=cache,
            **self.interrupt_kwargs(marker, use_cache=True),
        )
        assert second.ok and not second.interrupted
        assert second.resumed_cells == 2
        assert second.cache_hits == 2
        assert second.completed == CELLS
        # The quarantine record from the interrupted run is cleared.
        assert not (results / "failed_cells.json").exists()
        events = read_events(results / "run_log.jsonl")
        resume = [e for e in events if e["event"] == "run_resume"]
        assert resume and resume[0]["resumed"] == 2

        # Byte-identical to a never-interrupted run of the same cells.
        reference = tmp_path / "reference"
        run_all(
            results_dir=reference,
            **self.interrupt_kwargs(marker),
        )
        name = "toy-interrupt.json"
        assert (results / name).read_bytes() == (
            reference / name
        ).read_bytes()
