"""Unit tests for the Executor seam and its result envelopes."""

import pytest

from repro.runner.progress import RunLog
from repro.runner.registry import REGISTRY, Experiment, register
from repro.runner.scheduler import (
    InProcessExecutor,
    IntegrityError,
    ResultEnvelope,
    Scheduler,
)


class ExecToyExperiment(Experiment):
    """Doubles its value; raises when asked to."""

    def units(self, options):
        return []

    @staticmethod
    def run(params):
        if params.get("boom"):
            raise ValueError("boom requested")
        return params["value"] * 2

    def assemble(self, values, options):
        return values


@pytest.fixture
def toy():
    register("exec-toy")(ExecToyExperiment)
    experiment = REGISTRY["exec-toy"]
    yield experiment
    REGISTRY.pop("exec-toy", None)


def _unit(toy, key="a", **params):
    return toy.unit(key, **params)


class TestResultEnvelope:
    def test_seal_and_open(self):
        envelope = ResultEnvelope.seal({"answer": 42})
        assert envelope.intact
        assert envelope.open() == {"answer": 42}
        assert len(envelope.sha256) == 64

    def test_tampered_blob_fails_open(self):
        envelope = ResultEnvelope.seal([1, 2, 3])
        tampered = bytearray(envelope.blob)
        tampered[len(tampered) // 2] ^= 0xFF
        broken = ResultEnvelope(blob=bytes(tampered), sha256=envelope.sha256)
        assert not broken.intact
        with pytest.raises(IntegrityError):
            broken.open()

    def test_seal_is_deterministic(self):
        assert (
            ResultEnvelope.seal({"a": 1}).sha256
            == ResultEnvelope.seal({"a": 1}).sha256
        )


class TestInProcessExecutor:
    def test_success(self, toy):
        outcome = InProcessExecutor().submit(_unit(toy, value=21))
        assert not outcome.failed
        assert outcome.value == 42
        assert outcome.worker == 0

    def test_seal_produces_envelope(self, toy):
        # Every in-process outcome is sealed, as under every other backend.
        outcome = InProcessExecutor().submit(_unit(toy, value=3))
        assert outcome.envelope is not None
        assert outcome.envelope.open() == 6

    def test_failure_is_an_outcome_not_an_exception(self, toy):
        outcome = InProcessExecutor().submit(_unit(toy, value=1, boom=True))
        assert outcome.failed
        assert "boom requested" in outcome.error
        assert outcome.value is None

    def test_telemetry(self, toy, tmp_path):
        from repro.sim import read_jsonl

        log_path = tmp_path / "log.jsonl"
        log = RunLog(log_path)
        executor = InProcessExecutor(log=log)
        executor.submit(_unit(toy, "ok", value=1))
        executor.submit(_unit(toy, "bad", value=1, boom=True))
        log.close()
        events = [
            (event["key"], event["status"])
            for event in read_jsonl(log_path)
            if event["event"] == "unit_done"
        ]
        assert events == [("ok", "ok"), ("bad", "failed")]

    def test_bulk_run_default(self, toy):
        executor = InProcessExecutor()
        outcomes = executor.run(
            [(0, _unit(toy, "a", value=1)), (1, _unit(toy, "b", value=2))]
        )
        assert outcomes[0].value == 2
        assert outcomes[1].value == 4


class TestSchedulerRun:
    def test_single_cell_through_the_pool(self, toy):
        outcome = Scheduler(jobs=1).run([(0, _unit(toy, value=8))])[0]
        assert not outcome.failed
        assert outcome.value == 16
        assert outcome.envelope is not None and outcome.envelope.intact
