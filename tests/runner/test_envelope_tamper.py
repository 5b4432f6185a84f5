"""Tampered results are rejected and re-executed -- never served.

The acceptance path for a work-stealing result has three integrity
gates: the pickled board record must parse (truncation), the envelope's
SHA-256 must match its blob (bit flips), and the record's code
fingerprint must match the orchestrator's (stale or foreign code).
Each test plants one kind of forged record on the board before the run
and asserts the orchestrator (a) counts the rejection, (b) re-executes
the cell, and (c) hands back only the honest value.
"""

import pickle

import pytest

from repro.runner.cache import unit_cache_key
from repro.runner.distributed import Board, WorkStealingExecutor
from repro.runner.registry import REGISTRY, Experiment, register
from repro.runner.scheduler import IntegrityError, ResultEnvelope


class TamperToyExperiment(Experiment):
    """Returns a recognizable honest value."""

    def units(self, options):
        return []

    @staticmethod
    def run(params):
        return {"honest": params["value"]}

    def assemble(self, values, options):
        return values


@pytest.fixture
def toy():
    register("tamper-toy")(TamperToyExperiment)
    yield REGISTRY["tamper-toy"]
    REGISTRY.pop("tamper-toy", None)


def _executor(tmp_path):
    return WorkStealingExecutor(
        cache_dir=tmp_path / "cache",
        local_workers=0,
        max_retries=2,
        backoff=0.001,
        lease_ttl=1.0,
        heartbeat_interval=0.1,
        poll_interval=0.02,
        fallback_after=0.05,
    )


def _plant_and_run(tmp_path, toy, plant):
    """Plant a forged result for the cell, then run the executor."""
    executor = _executor(tmp_path)
    unit = toy.unit("x", value=11)
    cell = unit_cache_key(unit, executor.code_version)
    board = Board(tmp_path / "cache")
    board.ensure_layout()
    plant(board, cell, unit, executor.code_version)
    try:
        outcomes = executor.run([(0, unit)])
    finally:
        executor.close()
    return executor, board, cell, outcomes[0]


class TestTamperedResultsNeverServed:
    def test_bit_flipped_blob_rejected_and_reexecuted(self, tmp_path, toy):
        def plant(board, cell, unit, code_version):
            envelope = ResultEnvelope.seal({"honest": "no"})
            tampered = bytearray(envelope.blob)
            tampered[len(tampered) // 2] ^= 0xFF
            board.write_result(
                cell, unit.ident, "mallory",
                ResultEnvelope(blob=bytes(tampered), sha256=envelope.sha256),
                0.0, code_version,
            )

        executor, board, cell, outcome = _plant_and_run(
            tmp_path, toy, plant
        )
        assert executor.counters.corrupt_results == 1
        assert not outcome.failed
        assert outcome.value == {"honest": 11}

    def test_truncated_record_rejected_and_reexecuted(self, tmp_path, toy):
        def plant(board, cell, unit, code_version):
            envelope = ResultEnvelope.seal({"honest": "no"})
            board.write_result(
                cell, unit.ident, "mallory", envelope, 0.0, code_version
            )
            raw = board.result_path(cell).read_bytes()
            board.result_path(cell).write_bytes(raw[: len(raw) // 2])

        executor, board, cell, outcome = _plant_and_run(
            tmp_path, toy, plant
        )
        assert executor.counters.corrupt_results == 1
        assert not outcome.failed
        assert outcome.value == {"honest": 11}

    def test_mismatched_code_fingerprint_rejected(self, tmp_path, toy):
        def plant(board, cell, unit, code_version):
            board.write_result(
                cell, unit.ident, "stale-host",
                ResultEnvelope.seal({"honest": "stale"}), 0.0,
                "0" * 40,  # a fingerprint from some other source tree
            )

        executor, board, cell, outcome = _plant_and_run(
            tmp_path, toy, plant
        )
        assert executor.counters.corrupt_results == 1
        assert not outcome.failed
        assert outcome.value == {"honest": 11}

    def test_record_naming_another_cell_rejected(self, tmp_path, toy):
        def plant(board, cell, unit, code_version):
            record = {
                "cell": "some-other-cell",
                "ident": unit.ident,
                "worker": "mallory",
                "code_version": code_version,
            }
            envelope = ResultEnvelope.seal({"honest": "no"})
            record["sha256"] = envelope.sha256
            record["blob"] = envelope.blob
            record["elapsed"] = 0.0
            board.result_path(cell).parent.mkdir(
                parents=True, exist_ok=True
            )
            board.result_path(cell).write_bytes(pickle.dumps(record))

        executor, board, cell, outcome = _plant_and_run(
            tmp_path, toy, plant
        )
        assert executor.counters.corrupt_results == 1
        assert not outcome.failed
        assert outcome.value == {"honest": 11}

    def test_rejection_is_journaled_with_backoff(self, tmp_path, toy):
        def plant(board, cell, unit, code_version):
            envelope = ResultEnvelope.seal("whatever")
            board.write_result(
                cell, unit.ident, "mallory",
                ResultEnvelope(blob=envelope.blob[:-3], sha256=envelope.sha256),
                0.0, code_version,
            )

        executor, board, cell, outcome = _plant_and_run(
            tmp_path, toy, plant
        )
        assert not outcome.failed
        # Retirement cleans the board on success; the rejection still
        # counted and the retry was paced, which the outcome's attempt
        # count reflects (corrupt record + honest completion).
        assert executor.counters.corrupt_results == 1
        assert executor.counters.retries >= 1
        assert outcome.attempts >= 2


class TestEnvelopeTruncation:
    def test_truncated_blob_fails_integrity(self):
        envelope = ResultEnvelope.seal([1, 2, 3])
        truncated = ResultEnvelope(
            blob=envelope.blob[:-1], sha256=envelope.sha256
        )
        assert not truncated.intact
        with pytest.raises(IntegrityError):
            truncated.open()
