"""Unit and integration tests for the lease-based work-stealing executor.

The board tests pin the protocol's atomic clauses one at a time
(exclusive claims, owner-checked renewal, single-winner reclamation);
the executor tests drive the whole loop -- spawned local workers,
graceful degradation to inline execution, and cross-worker poison
quarantine with its full attempt history.  The stale-claim tests
put a peer's whole attempt between a worker's journal read and its
claim.
"""

import json
import time

import pytest

from repro.runner.cache import code_fingerprint, unit_cache_key
from repro.runner.distributed import (
    Board,
    Lease,
    WorkerLoop,
    WorkStealingExecutor,
)
from repro.runner.policy import ChaosConfig, FailurePolicy, backoff_delay
from repro.runner.registry import REGISTRY, Experiment, Unit, register
from repro.runner.scheduler import ResultEnvelope, TaskOutcome

POLICY = FailurePolicy(max_retries=2, backoff=0.01)
UNIT = Unit(experiment="steal-toy", key="x", params={}, seed=7)


class StealToyExperiment(Experiment):
    """Triples its value; raises when told to."""

    def units(self, options):
        return []

    @staticmethod
    def run(params):
        if params.get("boom"):
            raise ValueError("boom requested")
        return params["value"] * 3

    def assemble(self, values, options):
        return values


@pytest.fixture
def toy():
    register("steal-toy")(StealToyExperiment)
    yield REGISTRY["steal-toy"]
    REGISTRY.pop("steal-toy", None)


@pytest.fixture
def board(tmp_path):
    board = Board(tmp_path / "cache")
    board.ensure_layout()
    return board


class TestBoardLeases:
    def test_claim_is_exclusive(self, board):
        assert board.try_claim("cell", "alice", attempt=1) is not None
        assert board.try_claim("cell", "bob", attempt=1) is None
        lease = board.read_lease("cell")
        assert lease.worker == "alice"
        assert lease.attempt == 1

    def test_forced_claim_is_the_protocol_violation(self, board):
        board.try_claim("cell", "alice", attempt=1)
        forced = board.try_claim("cell", "mallory", attempt=1, force=True)
        assert forced is not None
        assert board.read_lease("cell").worker == "mallory"

    def test_renew_requires_ownership(self, board):
        board.try_claim("cell", "alice", attempt=1)
        before = board.read_lease("cell").heartbeat
        time.sleep(0.01)
        assert board.renew("cell", "alice")
        assert board.read_lease("cell").heartbeat > before
        assert not board.renew("cell", "bob")
        board.release("cell", "alice")
        assert not board.renew("cell", "alice")

    def test_release_requires_ownership(self, board):
        board.try_claim("cell", "alice", attempt=1)
        board.release("cell", "bob")
        assert board.read_lease("cell") is not None
        board.release("cell", "alice")
        assert board.read_lease("cell") is None

    def test_fresh_lease_is_not_reclaimable(self, board):
        board.try_claim("cell", "alice", attempt=1)
        assert board.reclaim_if_stale("cell", "bob", 5.0, POLICY, UNIT) is None
        assert board.read_lease("cell").worker == "alice"
        assert board.attempt_records("cell") == []

    def test_stale_lease_reclaimed_once_with_backoff_record(self, board):
        board.try_claim(
            "cell", "alice", attempt=2, heartbeat=time.time() - 100.0
        )
        reclaimed = board.reclaim_if_stale("cell", "bob", 1.0, POLICY, UNIT)
        assert isinstance(reclaimed, Lease)
        assert reclaimed.worker == "alice"
        # The rename decided the winner: the lease is gone, a second
        # reclaimer finds nothing and must not double-count the attempt.
        assert board.read_lease("cell") is None
        assert board.reclaim_if_stale("cell", "carol", 1.0, POLICY, UNIT) is None
        (record,) = board.attempt_records("cell")
        assert record["status"] == "reclaimed"
        assert record["worker"] == "alice"
        assert "reclaimed by bob" in record["error"]
        # The jitter is keyed on the unit's identity, not the board's
        # cache-key cell id.
        expected = backoff_delay(2, base=0.01, ident="steal-toy/x", seed=7)
        assert record["backoff"] == round(expected, 4)
        assert record["not_before"] > time.time() - 1.0


def _executor(tmp_path, **overrides):
    options = dict(
        cache_dir=tmp_path / "cache",
        local_workers=0,
        max_retries=2,
        backoff=0.01,
        lease_ttl=1.0,
        heartbeat_interval=0.1,
        poll_interval=0.02,
        fallback_after=0.05,
    )
    options.update(overrides)
    return WorkStealingExecutor(**options)


class TestWorkStealingExecutor:
    def test_spawned_workers_steal_every_cell(self, tmp_path, toy):
        executor = _executor(
            tmp_path, local_workers=2, fallback_after=30.0
        )
        units = [(i, toy.unit(str(i), value=i)) for i in range(6)]
        try:
            outcomes = executor.run(units)
        finally:
            executor.close()
        assert sorted(outcomes) == list(range(6))
        for i, outcome in outcomes.items():
            assert not outcome.failed
            assert outcome.value == i * 3
            assert str(outcome.worker).startswith("local-")
        assert sum(executor.cells_by_worker.values()) == 6
        assert executor.counters.fallback_cells == 0
        # Successful cells are retired: the board is consumable state,
        # the durable layer is the regular result cache.
        assert executor.board.task_cells() == []

    def test_degrades_to_inline_when_no_worker_checks_in(
        self, tmp_path, toy
    ):
        executor = _executor(tmp_path)
        units = [(i, toy.unit(str(i), value=i)) for i in range(3)]
        try:
            outcomes = executor.run(units)
        finally:
            executor.close()
        assert all(not outcome.failed for outcome in outcomes.values())
        assert executor.counters.fallback_cells == 3
        assert executor.counters.worker_crashes == 0

    def test_a_foreign_worker_does_not_hold_off_the_fallback(
        self, tmp_path, toy
    ):
        # A fresh heartbeat from a worker started from another source
        # tree: it declines every task this parent publishes, so it must
        # not keep the parent waiting out its drain timeout.
        executor = _executor(
            tmp_path, lease_ttl=10.0, fallback_after=1.0, drain_timeout=6.0
        )
        executor.board.ensure_layout()
        (executor.board.workers / "foreign.json").write_text(json.dumps({
            "worker": "foreign",
            "heartbeat": time.time(),
            "code_version": "another-source-tree",
        }))
        started = time.monotonic()
        try:
            outcomes = executor.run([(0, toy.unit("solo", value=5))])
        finally:
            executor.close()
        assert not outcomes[0].failed
        assert outcomes[0].value == 15
        assert executor.counters.fallback_cells == 1
        assert time.monotonic() - started < 6.0

    def test_a_worker_journals_the_first_task_it_declines(
        self, board, toy
    ):
        for index in range(2):
            board.publish(
                toy.unit(str(index), value=index), f"cell-{index}",
                {"code_version": "another-source-tree"},
            )
        loop = WorkerLoop(board, worker_id="w1")
        assert not loop.run_once()
        assert not loop.run_once()
        events = [
            json.loads(line)
            for line in (board.journals / "w1.jsonl").read_text().splitlines()
        ]
        assert [event["event"] for event in events] == ["declined"]
        assert events[0]["code_version"] == "another-source-tree"
        assert events[0]["own_code_version"] == code_fingerprint()
        heartbeat = json.loads((board.workers / "w1.json").read_text())
        assert heartbeat["code_version"] == code_fingerprint()

    def test_a_worker_skips_a_finished_cell_without_reading_it(
        self, board, toy, monkeypatch
    ):
        unit = toy.unit("done", value=1)
        board.publish(
            unit, "cell-done",
            {"code_version": code_fingerprint(), **POLICY.to_dict()},
        )
        finished = TaskOutcome(
            unit, 3, worker="w0", envelope=ResultEnvelope.seal(3)
        )
        board.results.path("cell-done").parent.mkdir(parents=True)
        board.results.path("cell-done").write_bytes(
            finished.encode(code_fingerprint())
        )

        def decode(cls, unit, code_version, data):
            raise AssertionError(f"a board scan read {unit.ident}")

        load_task = type(board).load_task

        def load_unfinished_task(self, cell):
            assert cell != "cell-done", "a board scan parsed a finished task"
            return load_task(self, cell)

        monkeypatch.setattr(TaskOutcome, "decode", classmethod(decode))
        monkeypatch.setattr(type(board), "load_task", load_unfinished_task)
        loop = WorkerLoop(board, worker_id="w1")
        assert not loop.run_once()
        assert board.read_lease("cell-done") is None

    def test_run_satisfies_the_executor_seam(self, tmp_path, toy):
        executor = _executor(tmp_path)
        try:
            outcome = executor.run([(0, toy.unit("solo", value=7))])[0]
        finally:
            executor.close()
        assert not outcome.failed
        assert outcome.value == 21
        assert outcome.envelope is not None and outcome.envelope.intact

    def test_poison_cell_quarantined_with_full_history(
        self, tmp_path, toy
    ):
        unit = toy.unit("bad", value=1)
        chaos = ChaosConfig(seed=3, poison_idents=(unit.ident,))
        executor = _executor(tmp_path, max_retries=1, chaos=chaos)
        # Exhaust the attempt budget by hand through two distinct chaotic
        # workers, then let the orchestrator find the wreckage.
        executor.board.ensure_layout()
        loop = WorkerLoop(
            executor.board, worker_id="w1", heartbeat_interval=0.05,
            chaos=chaos,
        )
        from repro.runner.cache import unit_cache_key

        cell = unit_cache_key(unit, executor.code_version)
        executor.board.publish(
            unit, cell,
            {
                "code_version": executor.code_version,
                "lease_ttl": 1.0,
                **FailurePolicy(max_retries=1, backoff=0.0).to_dict(),
            },
        )
        second = WorkerLoop(
            executor.board, worker_id="w2", heartbeat_interval=0.05,
            chaos=chaos,
        )
        assert loop.run_once()
        assert second.run_once()

        outcomes = executor.run([(0, unit)])
        executor.close()
        outcome = outcomes[0]
        assert outcome.failed
        assert "poison" in (outcome.error or "")
        assert executor.counters.quarantined == 1
        # The quarantine evidence: one record per attempt, each naming
        # the worker it ran on -- here two distinct workers.
        assert len(outcome.history) == 2
        assert {record["worker"] for record in outcome.history} == {
            "w1", "w2"
        }
        assert all(
            record["status"] == "error" for record in outcome.history
        )
        assert executor.board.is_quarantined(cell)

    def test_error_cells_retry_then_exhaust_with_history(
        self, tmp_path, toy
    ):
        executor = _executor(tmp_path, max_retries=1)
        unit = toy.unit("boom", value=1, boom=True)
        outcomes = executor.run([(0, unit)])
        executor.close()
        outcome = outcomes[0]
        assert outcome.failed
        assert "boom requested" in (outcome.error or "")
        assert len(outcome.history) == 2
        assert [record["attempt"] for record in outcome.history] == [1, 2]
        assert all("backoff" in record for record in outcome.history)


def _journal(board, cell):
    return [
        (record["attempt"], record["worker"], record["status"])
        for record in board.attempt_records(cell)
    ]


class TestClaimOnAStaleRead:
    """A peer may run an attempt and release the cell between another
    worker's read of the board and that worker's claim; the claim holds
    the lease then, and must not run the same attempt a second time."""

    @pytest.fixture
    def race(self, board, monkeypatch):
        """Publish one cell; ``w2``'s claim lets ``w1`` run it first."""

        def publish(unit):
            cell = unit_cache_key(unit, code_fingerprint())
            board.publish(
                unit, cell,
                {"code_version": code_fingerprint(), **POLICY.to_dict()},
            )
            peer = WorkerLoop(board, worker_id="w1")
            late = Board(board.root.parent)
            try_claim = late.try_claim

            def claim_after_the_peer(*args, **kwargs):
                monkeypatch.setattr(late, "try_claim", try_claim)
                assert peer.run_once()
                return try_claim(*args, **kwargs)

            monkeypatch.setattr(late, "try_claim", claim_after_the_peer)
            return cell, WorkerLoop(late, worker_id="w2")

        return publish

    def test_a_peers_failed_attempt_is_not_run_again(self, board, toy, race):
        cell, late = race(toy.unit("boom", value=1, boom=True))
        assert not late.run_once()
        assert _journal(board, cell) == [(1, "w1", "error")]
        assert board.read_lease(cell) is None

    def test_a_cell_a_peer_finished_is_not_run_again(self, board, toy, race):
        cell, late = race(toy.unit("fine", value=2))
        assert not late.run_once()
        assert _journal(board, cell) == [(1, "w1", "ok")]
        assert board.read_lease(cell) is None
        assert late.cells_completed == 0

    def test_the_given_back_cell_runs_its_next_attempt_after_backoff(
        self, board, toy, race
    ):
        cell, late = race(toy.unit("boom", value=1, boom=True))
        assert not late.run_once()
        (record,) = board.attempt_records(cell)
        time.sleep(max(0.0, record["not_before"] - time.time()) + 0.01)
        assert late.run_once()
        assert _journal(board, cell) == [(1, "w1", "error"), (2, "w2", "error")]
        assert board.read_lease(cell) is None
