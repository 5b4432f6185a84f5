"""Tampered results are rejected and re-executed -- never served.

A work-stealing result reaches the orchestrator as the finished cell's
one at-rest record, read back by the same verified reader the result
cache uses: the record must decode whole (truncation), name the cell it
is filed under and the orchestrator's code fingerprint (misfiled, stale
or foreign results), and its envelope's SHA-256 must match its blob (bit
flips).  Each test plants one kind of forged record on the board through
the shared encoder before the run and asserts the orchestrator (a) counts
the rejection, (b) re-executes the cell, and (c) hands back only the
honest value.
"""

import pytest

from repro.runner.cache import unit_cache_key
from repro.runner.distributed import Board, WorkStealingExecutor
from repro.runner.registry import REGISTRY, Experiment, register
from repro.runner.scheduler import IntegrityError, ResultEnvelope, TaskOutcome


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


def _forged(unit, value, envelope=None):
    """An outcome claiming ``value`` for ``unit``, sealed or not."""
    return TaskOutcome(
        unit, value, worker="mallory",
        envelope=envelope or ResultEnvelope.seal(value),
    )


def _file(board, cell, data):
    """File ``data`` on the board as ``cell``'s result record."""
    path = board.results.path(cell)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


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
            forged = _forged(
                unit, {"honest": "no"},
                ResultEnvelope(blob=bytes(tampered), sha256=envelope.sha256),
            )
            _file(board, cell, forged.encode(code_version))

        executor, board, cell, outcome = _plant_and_run(
            tmp_path, toy, plant
        )
        assert executor.counters.corrupt_results == 1
        assert not outcome.failed
        assert outcome.value == {"honest": 11}

    def test_truncated_record_rejected_and_reexecuted(self, tmp_path, toy):
        def plant(board, cell, unit, code_version):
            raw = _forged(unit, {"honest": "no"}).encode(code_version)
            _file(board, cell, raw[: len(raw) // 2])

        executor, board, cell, outcome = _plant_and_run(
            tmp_path, toy, plant
        )
        assert executor.counters.corrupt_results == 1
        assert not outcome.failed
        assert outcome.value == {"honest": 11}

    def test_mismatched_code_fingerprint_rejected(self, tmp_path, toy):
        def plant(board, cell, unit, code_version):
            # A fingerprint from some other source tree.
            stale = _forged(unit, {"honest": "stale"}).encode("0" * 40)
            _file(board, cell, stale)

        executor, board, cell, outcome = _plant_and_run(
            tmp_path, toy, plant
        )
        assert executor.counters.corrupt_results == 1
        assert not outcome.failed
        assert outcome.value == {"honest": 11}

    def test_record_naming_another_cell_rejected(self, tmp_path, toy):
        def plant(board, cell, unit, code_version):
            other = toy.unit("some-other-cell", value=11)
            _file(board, cell, _forged(other, {"honest": "no"}).encode(
                code_version
            ))

        executor, board, cell, outcome = _plant_and_run(
            tmp_path, toy, plant
        )
        assert executor.counters.corrupt_results == 1
        assert not outcome.failed
        assert outcome.value == {"honest": 11}

    def test_rejection_is_journaled_with_backoff(self, tmp_path, toy):
        def plant(board, cell, unit, code_version):
            envelope = ResultEnvelope.seal("whatever")
            forged = _forged(
                unit, "whatever",
                ResultEnvelope(blob=envelope.blob[:-3], sha256=envelope.sha256),
            )
            _file(board, cell, forged.encode(code_version))

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
