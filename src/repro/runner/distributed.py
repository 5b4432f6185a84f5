"""Lease-based multi-host work stealing over the shared result cache.

This is the third :class:`~repro.runner.scheduler.Executor` backend that
``run_all`` drives, beside the process pool and the in-process path: N
independent worker processes -- on this host or any host that mounts the
same cache directory -- *steal* cells from a shared board instead of
being fed by a parent.  The parent run (``run-all --executor
work-stealing``) publishes every cell as a task file, and from then on
coordination happens exclusively through atomic filesystem operations in
``<cache-dir>/board/``:

``tasks/<cell>.json``
    One published cell: the unit's coordinates, the code fingerprint it
    must be executed under, the lease TTL, and the
    :class:`~repro.runner.policy.FailurePolicy` (retry budget, backoff).
    The cell id is :func:`~repro.runner.cache.unit_cache_key` -- the
    same content address the result cache uses.
``leases/<cell>.json``
    The claim.  Created with ``O_CREAT | O_EXCL`` so exactly one worker
    wins; holds ``{cell, worker, heartbeat, attempt}``.  The owner
    renews ``heartbeat`` from a background thread; any other party that
    finds a heartbeat older than the lease TTL *reclaims* the lease --
    rename-to-private-name first, so exactly one reclaimer wins too.
``attempts/<cell>.jsonl``
    Append-only per-cell attempt history: every error, reclaim, rejected
    result and completion lands here as a
    :meth:`~repro.runner.policy.FailurePolicy.record` -- worker id,
    status, backoff, and the ``not_before`` time gating the next claim.
    This journal is the quarantine evidence: a poison cell's failed
    attempts go into ``failed_cells.json`` as they stand.
``results/``
    The finished cells: a :class:`~repro.runner.cache.ResultCache` of
    their own, so ``--no-cache`` leaves the main cache untouched, holding
    each worker's :class:`~repro.runner.scheduler.TaskOutcome` in the
    one at-rest record the main cache keeps -- the envelope as the worker
    sealed it, beside the cell's identity, the worker and the run-kernel
    counts.  The parent reads it through the same verified reader, so a
    torn record, one naming another cell or code fingerprint, or a blob
    failing its SHA-256 is deleted and re-executed, never served.
``workers/<worker>.json`` / ``journal/<worker>.jsonl``
    Worker presence heartbeats, carrying the worker's code fingerprint
    (the parent's degraded-mode signal), and per-worker event journals,
    read with the torn-tail-tolerant :func:`repro.sim.read_jsonl`.

Retry pacing and quarantine are the pool's, decided by the shared
:class:`~repro.runner.policy.FailurePolicy`, so every host computes the
identical schedule: a cell whose failed attempts fill the budget is
quarantined with its attempt history.  If no worker (local or remote)
with the parent's code fingerprint checks in, the parent degrades
gracefully: it claims cells through the very same lease protocol and
runs them inline, so ``--executor work-stealing`` on a lonely host still
completes.  (A worker from another source tree declines every task, so
its heartbeat does not count; its journal says why.)

Determinism makes duplicate execution harmless: two workers racing the
same cell (a stale lease reclaimed while its owner was merely slow, a
chaos-injected duplicate lease) produce byte-identical envelopes, and
the atomic result rename means the last writer wins whole.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from .cache import ResultCache, _atomic_write, code_fingerprint, unit_cache_key
from .policy import (
    CORRUPT,
    ERROR,
    OK,
    RECLAIMED,
    ChaosConfig,
    FailurePolicy,
    RunCounters,
    failed_attempts,
)
from .progress import ProgressPrinter, RunLog
from .registry import Unit, ensure_default_experiments
from .scheduler import (
    Executor,
    IntegrityError,
    ResultEnvelope,
    TaskOutcome,
    execute,
)

#: Board directory name inside the shared cache directory.
BOARD_DIR = "board"

#: Default lease protocol timings (seconds).  Chosen so a same-host test
#: topology converges quickly while a cross-host NFS mount with sloppy
#: attribute caching still has comfortable margins; override per run.
DEFAULT_LEASE_TTL = 10.0
DEFAULT_HEARTBEAT_INTERVAL = 2.0


def _append_jsonl(path: Path, record: Mapping[str, Any]) -> None:
    """Append one JSONL record with a single O_APPEND write.

    Multiple workers append to the same attempt journal concurrently; a
    single ``os.write`` of one line keeps records whole under POSIX
    append semantics (and a torn tail from a killed writer is exactly
    what :func:`repro.sim.read_jsonl` tolerates).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=False, default=str) + "\n"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)


def _read_jsonl_quiet(path: Path) -> List[Dict[str, Any]]:
    """Torn-tail-tolerant JSONL read; missing file reads as empty."""
    import warnings

    from repro.sim import read_jsonl

    if not path.is_file():
        return []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return read_jsonl(path)
        except ValueError:
            # Interior corruption: surface as "no usable history" rather
            # than wedging the protocol; the cell simply retries.
            return []


def default_worker_id() -> str:
    return f"{platform.node() or 'host'}-{os.getpid()}"


@dataclass(frozen=True)
class Lease:
    """One worker's claim on one cell."""

    cell: str
    worker: str
    heartbeat: float
    attempt: int
    claimed_at: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cell": self.cell,
            "worker": self.worker,
            "heartbeat": self.heartbeat,
            "attempt": self.attempt,
            "claimed_at": self.claimed_at,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Lease":
        return cls(
            cell=str(payload.get("cell", "")),
            worker=str(payload.get("worker", "")),
            heartbeat=float(payload.get("heartbeat", 0.0)),
            attempt=int(payload.get("attempt", 1)),
            claimed_at=float(payload.get("claimed_at", 0.0)),
        )


class Board:
    """The shared coordination directory (see module docstring).

    Every mutation is either an ``O_EXCL`` create, an atomic
    write-then-rename, a rename, or a single appended line -- no
    operation can be observed half-done by another host.
    """

    def __init__(self, cache_dir: Path | str) -> None:
        self.root = Path(cache_dir) / BOARD_DIR
        self.tasks = self.root / "tasks"
        self.leases = self.root / "leases"
        self.results = ResultCache(self.root / "results")
        self.attempts = self.root / "attempts"
        self.quarantine = self.root / "quarantine"
        self.workers = self.root / "workers"
        self.journals = self.root / "journal"
        self.stop_path = self.root / "stop"
        self._reclaim_serial = 0

    def ensure_layout(self) -> None:
        for directory in (
            self.tasks, self.leases, self.results.root, self.attempts,
            self.quarantine, self.workers, self.journals,
        ):
            directory.mkdir(parents=True, exist_ok=True)

    # -- tasks -------------------------------------------------------------------

    def publish(self, unit: Unit, cell: str, config: Mapping[str, Any]) -> None:
        task = {
            "cell": cell,
            "ident": unit.ident,
            "unit": {
                "experiment": unit.experiment,
                "key": unit.key,
                "params": dict(unit.params),
                "seed": unit.seed,
            },
        }
        task.update(config)
        _atomic_write(
            self.tasks / f"{cell}.json",
            json.dumps(task, sort_keys=True, default=str) + "\n",
        )

    def load_task(self, cell: str) -> Optional[Dict[str, Any]]:
        try:
            return json.loads((self.tasks / f"{cell}.json").read_text())
        except (OSError, ValueError):
            return None

    def task_cells(self) -> List[str]:
        return sorted(
            path.name[: -len(".json")]
            for path in self.tasks.glob("*.json")
        )

    @staticmethod
    def task_unit(task: Mapping[str, Any]) -> Unit:
        raw = task["unit"]
        return Unit(
            experiment=raw["experiment"],
            key=raw["key"],
            params=dict(raw.get("params", {})),
            seed=int(raw.get("seed", 0)),
        )

    def retire(self, cell: str) -> None:
        """Remove one cell's board files (after its result is banked)."""
        self.results.drop(cell)
        for path in (
            self.tasks / f"{cell}.json",
            self.leases / f"{cell}.json",
            self.attempts / f"{cell}.jsonl",
            self.quarantine / f"{cell}.json",
        ):
            try:
                path.unlink()
            except OSError:
                pass

    # -- leases ------------------------------------------------------------------

    def lease_path(self, cell: str) -> Path:
        return self.leases / f"{cell}.json"

    def read_lease(self, cell: str) -> Optional[Lease]:
        try:
            payload = json.loads(self.lease_path(cell).read_text())
        except (OSError, ValueError):
            return None
        return Lease.from_dict(payload)

    def try_claim(
        self,
        cell: str,
        worker: str,
        attempt: int,
        heartbeat: Optional[float] = None,
        force: bool = False,
    ) -> Optional[Lease]:
        """Atomically claim ``cell``; returns the lease or ``None``.

        ``force`` overwrites any existing lease -- that is a *protocol
        violation* used only by the chaos campaign's duplicate-lease
        fault; honest claimants always go through ``O_EXCL``.
        """
        now = time.time()
        lease = Lease(
            cell=cell,
            worker=worker,
            heartbeat=heartbeat if heartbeat is not None else now,
            attempt=attempt,
            claimed_at=now,
        )
        path = self.lease_path(cell)
        payload = json.dumps(lease.to_dict(), sort_keys=True) + "\n"
        if force:
            _atomic_write(path, payload)
            return lease
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            return None
        try:
            os.write(fd, payload.encode("utf-8"))
        finally:
            os.close(fd)
        return lease

    def renew(self, cell: str, worker: str) -> bool:
        """Refresh the heartbeat of a lease we still own.

        Read-check-rewrite: if the lease vanished (reclaimed) or changed
        owner, renewal fails and the caller must assume it lost the cell.
        The rewrite is atomic, so a racing reader always sees one whole
        lease or the other.
        """
        current = self.read_lease(cell)
        if current is None or current.worker != worker:
            return False
        refreshed = Lease(
            cell=cell,
            worker=worker,
            heartbeat=time.time(),
            attempt=current.attempt,
            claimed_at=current.claimed_at,
        )
        _atomic_write(
            self.lease_path(cell),
            json.dumps(refreshed.to_dict(), sort_keys=True) + "\n",
        )
        return True

    def release(self, cell: str, worker: str) -> None:
        """Drop a lease we own (completion or handled failure)."""
        current = self.read_lease(cell)
        if current is not None and current.worker == worker:
            try:
                self.lease_path(cell).unlink()
            except OSError:
                pass

    def reclaim_if_stale(
        self, cell: str, reclaimer: str, lease_ttl: float,
        policy: FailurePolicy, unit: Unit,
    ) -> Optional[Lease]:
        """Reclaim ``cell``'s lease if its heartbeat expired.

        The winner is decided by ``os.rename`` to a reclaimer-private
        name: the filesystem guarantees exactly one rename succeeds, so
        a fleet of reclaimers never double-counts an attempt.  The dead
        attempt is closed out in the attempt journal by ``policy``, whose
        backoff gates the next claim.
        """
        lease = self.read_lease(cell)
        if lease is None:
            return None
        if time.time() - lease.heartbeat <= lease_ttl:
            return None
        self._reclaim_serial += 1
        takeover = self.leases / (
            f"{cell}.reclaim.{reclaimer}.{os.getpid()}.{self._reclaim_serial}"
        )
        try:
            os.rename(self.lease_path(cell), takeover)
        except OSError:
            return None  # another reclaimer won
        # Re-read the moved lease: it may have been renewed between our
        # staleness check and the rename.
        try:
            moved = Lease.from_dict(json.loads(takeover.read_text()))
        except (OSError, ValueError):
            moved = lease
        finally:
            try:
                takeover.unlink()
            except OSError:
                pass
        age = time.time() - moved.heartbeat
        self.record_attempt(
            cell,
            policy.record(
                unit, moved.attempt, RECLAIMED, moved.worker,
                f"lease heartbeat {age:.3f}s old, reclaimed by {reclaimer}",
            ),
        )
        return moved

    # -- attempt history ---------------------------------------------------------

    def attempt_records(self, cell: str) -> List[Dict[str, Any]]:
        return _read_jsonl_quiet(self.attempts / f"{cell}.jsonl")

    def record_attempt(self, cell: str, record: Mapping[str, Any]) -> None:
        _append_jsonl(self.attempts / f"{cell}.jsonl", record)

    # -- quarantine --------------------------------------------------------------

    def quarantine_cell(self, cell: str, payload: Mapping[str, Any]) -> None:
        _atomic_write(
            self.quarantine / f"{cell}.json",
            json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
        )

    def is_quarantined(self, cell: str) -> bool:
        return (self.quarantine / f"{cell}.json").is_file()

    # -- worker presence + journals ----------------------------------------------

    def worker_heartbeat(self, worker: str) -> None:
        _atomic_write(
            self.workers / f"{worker}.json",
            json.dumps(
                {
                    "worker": worker,
                    "heartbeat": time.time(),
                    "pid": os.getpid(),
                    "host": platform.node(),
                    "code_version": code_fingerprint(),
                },
                sort_keys=True,
            ) + "\n",
        )

    def fresh_workers(self, ttl: float, code_version: str) -> List[str]:
        """Workers heard from within ``ttl`` that run ``code_version``."""
        now = time.time()
        fresh = []
        for path in self.workers.glob("*.json"):
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if (
                now - float(payload.get("heartbeat", 0.0)) <= ttl
                and payload.get("code_version") == code_version
            ):
                fresh.append(str(payload.get("worker", path.stem)))
        return sorted(fresh)

    def journal(self, worker: str, event: str, **fields: Any) -> None:
        record: Dict[str, Any] = {"event": event, "time": time.time()}
        record.update(fields)
        _append_jsonl(self.journals / f"{worker}.jsonl", record)

    def stop_requested(self) -> bool:
        return self.stop_path.is_file()

    def request_stop(self) -> None:
        _atomic_write(self.stop_path, "stop\n")

    def clear_stop(self) -> None:
        try:
            self.stop_path.unlink()
        except OSError:
            pass


class WorkerLoop:
    """One worker's side of the lease protocol.

    Drives ``claim -> heartbeat -> run -> complete/fail`` for one cell at
    a time; shared by ``python -m repro worker``, the executor's locally
    spawned workers, and the parent's degraded inline mode.  With a
    :class:`~repro.runner.policy.ChaosConfig` the loop misbehaves
    deterministically per ``(cell ident, attempt)`` -- every fault mode
    attacks a specific clause of the protocol (see the chaos campaign).
    """

    def __init__(
        self,
        board: Board,
        worker_id: Optional[str] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        chaos: Optional[ChaosConfig] = None,
    ) -> None:
        self.board = board
        self.worker_id = worker_id or default_worker_id()
        self.heartbeat_interval = heartbeat_interval
        self.chaos = chaos
        self.cells_completed = 0
        self.cells_failed = 0
        self._journal_torn = False
        #: Foreign code fingerprints already journaled as declined.
        self._declined: Set[str] = set()

    # -- journal helper (a torn journal must stay torn at the tail) --------------

    def _journal(self, event: str, **fields: Any) -> None:
        if self._journal_torn:
            return
        self.board.journal(self.worker_id, event, **fields)

    def _tear_journal(self) -> None:
        """Simulate a kill mid-append: truncate the tail mid-record."""
        path = self.board.journals / f"{self.worker_id}.jsonl"
        try:
            size = path.stat().st_size
        except OSError:
            return
        if size > 10:
            with path.open("rb+") as handle:
                handle.truncate(size - 10)
        self._journal_torn = True

    # -- claiming ----------------------------------------------------------------

    def _claimable(self, cell: str, policy: FailurePolicy) -> Optional[int]:
        """The attempt number a claim would use, or ``None``."""
        if self.board.is_quarantined(cell):
            return None
        records = self.board.attempt_records(cell)
        if policy.exhausted(records):
            return None
        if records and float(records[-1].get("not_before", 0.0)) > time.time():
            return None
        return policy.next_attempt(records)

    def run_once(self) -> bool:
        """Claim and run at most one cell; returns whether work was done.

        Also performs one pass of stale-lease reclamation over the
        board, so any worker -- not just the parent -- can recover cells
        from a crashed peer: that is the "stealing" in work stealing.
        """
        self.board.worker_heartbeat(self.worker_id)
        own_fingerprint = code_fingerprint()
        reclaimed_any = False
        for cell in self.board.task_cells():
            if self.board.results.path(cell).is_file():
                continue  # Finished: seen by a stat, never a read.
            task = self.board.load_task(cell)
            if task is None:
                continue
            policy = FailurePolicy.from_dict(task)
            unit = self.board.task_unit(task)
            lease_ttl = float(task.get("lease_ttl", DEFAULT_LEASE_TTL))
            if not reclaimed_any:
                if self.board.reclaim_if_stale(
                    cell, self.worker_id, lease_ttl, policy, unit
                ) is not None:
                    reclaimed_any = True
            foreign = task.get("code_version")
            if foreign not in (None, own_fingerprint):
                # A task published by a different source tree: running it
                # here would bank a result under the wrong fingerprint.
                if foreign not in self._declined:
                    self._declined.add(foreign)
                    self._journal(
                        "declined", cell=cell, code_version=foreign,
                        own_code_version=own_fingerprint,
                    )
                continue
            attempt = self._claimable(cell, policy)
            if attempt is None:
                continue
            fault = (
                self.chaos.fault_for(unit.ident, attempt)
                if self.chaos is not None else None
            )
            force = fault == "duplicate-lease"
            if not force and self.board.read_lease(cell) is not None:
                continue  # validly held by someone else
            heartbeat = None
            if fault == "stale-lease":
                # Claim with an already-expired heartbeat and never renew:
                # the reclaimers must take the cell away mid-run.
                heartbeat = time.time() - 100.0 * lease_ttl
            lease = self.board.try_claim(
                cell, self.worker_id, attempt,
                heartbeat=heartbeat, force=force,
            )
            if lease is None:
                continue
            self._run_claimed(cell, unit, attempt, fault, policy)
            return True
        return reclaimed_any

    # -- executing one claimed cell ----------------------------------------------

    def _run_claimed(
        self,
        cell: str,
        unit: Unit,
        attempt: int,
        fault: Optional[str],
        policy: FailurePolicy,
    ) -> None:
        import threading

        ident = unit.ident
        self._journal("claim", cell=cell, ident=ident, attempt=attempt)
        if fault == "crash":
            # Die the hard way mid-cell: no result, no release, no goodbye.
            os.kill(os.getpid(), 9)

        frozen = fault in ("heartbeat-freeze", "stale-lease")
        stop_renewing = threading.Event()

        def renew_loop() -> None:
            while not stop_renewing.wait(self.heartbeat_interval):
                self.board.worker_heartbeat(self.worker_id)
                if frozen:
                    continue
                if not self.board.renew(cell, self.worker_id):
                    return  # lease lost; finish the cell, touch nothing

        renewer = threading.Thread(target=renew_loop, daemon=True)
        renewer.start()
        abandoned = False
        try:
            if fault == "stale-lease" and self.chaos is not None:
                # Hold the cell past the lease TTL so the reclaimers see
                # the (deliberately expired) lease and take it away while
                # this worker is still computing.
                time.sleep(self.chaos.hang_seconds)
            if fault == "heartbeat-freeze" and self.chaos is not None:
                # Hold the cell, silent, past the lease TTL, then walk
                # away without a result or release: the worst-behaved
                # slow worker.  The abandoned (now stale) lease is left
                # for the reclaimers -- releasing it would hide the
                # fault and let the same attempt fire again.
                time.sleep(self.chaos.hang_seconds)
                self._journal("abandon", cell=cell)
                abandoned = True
                return
            outcome = (
                TaskOutcome(
                    unit, failed=True,
                    error=f"RuntimeError: chaos: poisoned cell {ident}",
                )
                if fault == "poison" else execute(unit)
            )
            if outcome.failed:
                self.board.record_attempt(
                    cell,
                    policy.record(
                        unit, attempt, ERROR, self.worker_id, outcome.error
                    ),
                )
                self._journal(
                    "error", cell=cell, attempt=attempt,
                )
                self.cells_failed += 1
                return
            outcome.worker = self.worker_id
            if fault == "corrupt-result":
                tampered = bytearray(outcome.envelope.blob)
                tampered[len(tampered) // 2] ^= 0xFF
                outcome.envelope = ResultEnvelope(
                    blob=bytes(tampered), sha256=outcome.envelope.sha256
                )
            self.board.results.put(outcome)
            self.board.record_attempt(
                cell, policy.record(unit, attempt, OK, self.worker_id)
            )
            self._journal(
                "done", cell=cell, attempt=attempt,
                elapsed=round(outcome.elapsed, 4),
            )
            self.cells_completed += 1
            if fault == "duplicate-lease":
                # The protocol violation proper: claim the finished cell
                # again over whatever lease state exists and complete it
                # a second time -- exactly what a second worker holding a
                # duplicate lease would do.  Determinism must make the
                # double execution byte-identical and therefore harmless.
                self.board.try_claim(
                    cell, self.worker_id, attempt, force=True
                )
                duplicate = execute(unit)
                duplicate.worker = f"{self.worker_id}+dup"
                self.board.results.put(duplicate)
                self.board.record_attempt(
                    cell,
                    policy.record(unit, attempt, OK, f"{self.worker_id}+dup"),
                )
            if fault == "torn-journal":
                self._tear_journal()
        finally:
            stop_renewing.set()
            renewer.join(timeout=2.0)
            if not abandoned:
                self.board.release(cell, self.worker_id)


def worker_loop(
    cache_dir: Path | str,
    worker_id: Optional[str] = None,
    poll_interval: float = 0.5,
    idle_exit: Optional[float] = 30.0,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    chaos: Optional[ChaosConfig] = None,
    quiet: bool = True,
) -> int:
    """The ``python -m repro worker <cache-dir>`` entry point.

    Steals cells from the board until the parent raises the stop flag, a
    SIGTERM arrives, or the board has been idle for ``idle_exit``
    seconds (``None`` waits forever).  Returns the number of cells this
    worker completed.
    """
    import signal

    ensure_default_experiments()
    from repro.faults.campaign import ensure_probe_experiment

    ensure_probe_experiment()
    board = Board(cache_dir)
    board.ensure_layout()
    loop = WorkerLoop(
        board,
        worker_id=worker_id,
        heartbeat_interval=heartbeat_interval,
        chaos=chaos,
    )
    stopping = {"now": False}

    def handle_term(_signum: int, _frame: Any) -> None:
        stopping["now"] = True

    previous = signal.getsignal(signal.SIGTERM)
    try:
        signal.signal(signal.SIGTERM, handle_term)
    except ValueError:  # pragma: no cover - non-main thread
        previous = None
    if not quiet:
        print(
            f"[repro.worker] {loop.worker_id} stealing from {board.root}",
            flush=True,
        )
    last_work = time.monotonic()
    try:
        while not stopping["now"] and not board.stop_requested():
            if loop.run_once():
                last_work = time.monotonic()
                continue
            if (
                idle_exit is not None
                and time.monotonic() - last_work > idle_exit
            ):
                break
            time.sleep(poll_interval)
    except KeyboardInterrupt:
        pass
    finally:
        board.journal(
            loop.worker_id, "exit",
            completed=loop.cells_completed, failed=loop.cells_failed,
        )
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    if not quiet:
        print(
            f"[repro.worker] {loop.worker_id} exiting:"
            f" {loop.cells_completed} cells completed",
            flush=True,
        )
    return loop.cells_completed


def _spawned_worker_main(
    cache_dir: str,
    worker_id: str,
    poll_interval: float,
    heartbeat_interval: float,
    chaos: Optional[ChaosConfig],
) -> None:
    """Target for the executor's locally spawned worker processes."""
    worker_loop(
        cache_dir,
        worker_id=worker_id,
        poll_interval=poll_interval,
        idle_exit=None,
        heartbeat_interval=heartbeat_interval,
        chaos=chaos,
    )


@dataclass
class _PendingCell:
    task_id: int
    unit: Unit
    cell: str
    published: float = field(default_factory=time.time)


class WorkStealingExecutor(Executor):
    """The parent side: publish cells, bank results, keep the fleet honest.

    Satisfies the :class:`~repro.runner.scheduler.Executor` seam
    (``run``/``close``) so ``run_all`` drives it like the pool.
    ``local_workers`` spawns that many worker
    processes on this host over the same protocol remote workers use
    (``python -m repro worker``); with zero local workers the parent
    waits ``fallback_after`` seconds for anyone to check in, then
    degrades to claiming and running cells inline.
    """

    def __init__(
        self,
        cache_dir: Path | str,
        local_workers: int = 0,
        max_retries: int = 2,
        backoff: float = 0.05,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        poll_interval: float = 0.2,
        fallback_after: float = 10.0,
        drain_timeout: Optional[float] = None,
        log: Optional[RunLog] = None,
        progress: Optional[ProgressPrinter] = None,
        chaos: Optional[ChaosConfig] = None,
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.board = Board(cache_dir)
        self.local_workers = max(0, local_workers)
        self.policy = FailurePolicy(max_retries, backoff)
        self.lease_ttl = lease_ttl
        self.heartbeat_interval = heartbeat_interval
        self.poll_interval = poll_interval
        self.fallback_after = fallback_after
        self.drain_timeout = drain_timeout
        self.log = log or RunLog(None)
        self.progress = progress
        self.chaos = chaos
        self.code_version = code_fingerprint()
        self.counters = RunCounters()
        #: cells completed per worker id (remote ids included).
        self.cells_by_worker: Dict[str, int] = {}
        try:
            import multiprocessing

            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._ctx = None
        self._processes: Dict[str, Any] = {}
        self._spawn_serial = 0

    # -- Executor seam -----------------------------------------------------------

    def close(self) -> None:
        self._stop_local_workers(force=True)

    # -- local fleet -------------------------------------------------------------

    def _spawn_local_worker(self) -> None:
        if self._ctx is None:  # pragma: no cover - non-POSIX platforms
            return
        self._spawn_serial += 1
        worker_id = f"local-{os.getpid()}-{self._spawn_serial}"
        process = self._ctx.Process(
            target=_spawned_worker_main,
            args=(
                str(self.cache_dir),
                worker_id,
                min(self.poll_interval, 0.2),
                self.heartbeat_interval,
                self.chaos,
            ),
            daemon=True,
            name=f"repro-steal-{worker_id}",
        )
        process.start()
        self._processes[worker_id] = process

    def _tend_local_workers(self) -> None:
        """Respawn locally spawned workers that died (e.g. SIGKILL chaos)."""
        for worker_id, process in list(self._processes.items()):
            if process.is_alive():
                continue
            del self._processes[worker_id]
            self.counters.worker_crashes += 1
            self.log.emit(
                "worker_crash",
                worker=worker_id,
                pid=process.pid,
                exitcode=process.exitcode,
            )
            self._spawn_local_worker()

    def _stop_local_workers(self, force: bool = False) -> None:
        if not self._processes:
            return
        self.board.request_stop()
        deadline = time.monotonic() + (0.0 if force else 5.0)
        for process in self._processes.values():
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in self._processes.values():
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        self._processes.clear()

    # -- banking results ---------------------------------------------------------

    def _bank(self, pending: _PendingCell) -> Optional[TaskOutcome]:
        """The cell's outcome, once its result is on the board.

        The board's results are read through the verified reader; a
        record it refuses is deleted, so the cell can be claimed again,
        and charged as a corrupt attempt.
        """
        cell = pending.cell
        unit = pending.unit
        if not self.board.results.path(cell).is_file():
            return None  # A stat per poll, like the workers' board scans.
        try:
            outcome = self.board.results.load(unit)
        except IntegrityError as error:
            self.counters.corrupt_results += 1
            self.board.results.drop(cell)
            records = self.board.attempt_records(cell)
            self.board.record_attempt(
                cell,
                self.policy.record(
                    unit, self.policy.next_attempt(records), CORRUPT,
                    None, str(error),
                ),
            )
            self.log.emit(
                "corrupt_result",
                experiment=unit.experiment,
                key=unit.key,
                reason=str(error),
            )
            return None
        if outcome is None:
            return None  # Dropped since the stat.
        records = self.board.attempt_records(cell)
        outcome.attempts = self.policy.next_attempt(records)
        outcome.history = failed_attempts(records)
        worker = outcome.worker = str(outcome.worker)
        self.cells_by_worker[worker] = self.cells_by_worker.get(worker, 0) + 1
        busy = self.counters.worker_busy
        busy[worker] = busy.get(worker, 0.0) + outcome.elapsed
        self.log.emit("unit_done", **outcome.done_fields())
        return outcome

    def _quarantine_check(
        self, pending: _PendingCell
    ) -> Optional[TaskOutcome]:
        """Fail a cell whose failed attempts fill the budget."""
        records = self.board.attempt_records(pending.cell)
        if not self.policy.exhausted(records):
            return None
        history = failed_attempts(records)
        reason = "attempt budget exhausted"
        error = next(
            (item["error"] for item in reversed(history) if item.get("error")),
            reason,
        )
        self.counters.quarantined += 1
        self.board.quarantine_cell(
            pending.cell,
            {"ident": pending.unit.ident, "reason": reason, "history": history},
        )
        outcome = TaskOutcome(
            unit=pending.unit,
            worker=history[-1].get("worker"),
            attempts=len(history),
            failed=True,
            error=f"{reason}: {error}",
            history=history,
        )
        self.log.emit("unit_done", **outcome.done_fields())
        return outcome

    def _scan_journals(self) -> None:
        """Count worker journals with torn tails (kills mid-append).

        The journals are advisory evidence, not protocol state, so a tear
        is *masked* by design -- but it must be visible, never silently
        absorbed: this count reaches the run report and the chaos matrix.
        """
        for path in self.board.journals.glob("*.jsonl"):
            try:
                raw = path.read_bytes()
            except OSError:
                continue
            if not raw:
                continue
            if not raw.endswith(b"\n"):
                self.counters.torn_journals += 1
                continue
            last = raw.rstrip(b"\n").rsplit(b"\n", 1)[-1]
            try:
                json.loads(last)
            except ValueError:
                self.counters.torn_journals += 1

    # -- the drain loop ----------------------------------------------------------

    def run(self, units: List[Tuple[int, Unit]]) -> Dict[int, TaskOutcome]:
        if not units:
            return {}
        self.board.ensure_layout()
        self.board.clear_stop()
        task_config = {
            "code_version": self.code_version,
            "lease_ttl": self.lease_ttl,
            **self.policy.to_dict(),
        }
        pending: Dict[int, _PendingCell] = {}
        for task_id, unit in units:
            cell = unit_cache_key(unit, self.code_version)
            self.board.publish(unit, cell, task_config)
            pending[task_id] = _PendingCell(
                task_id=task_id, unit=unit, cell=cell
            )
        self.log.emit(
            "steal_board",
            cells=len(pending),
            board=str(self.board.root),
            local_workers=self.local_workers,
            lease_ttl=self.lease_ttl,
        )
        for _ in range(self.local_workers):
            self._spawn_local_worker()

        inline = WorkerLoop(
            self.board,
            worker_id=f"orchestrator-{os.getpid()}",
            heartbeat_interval=self.heartbeat_interval,
        )
        outcomes: Dict[int, TaskOutcome] = {}
        started = time.monotonic()
        fallback_engaged = False
        try:
            while len(outcomes) < len(pending):
                made_progress = False
                for task_id, cell in list(pending.items()):
                    if task_id in outcomes:
                        continue
                    outcome = self._bank(cell)
                    if outcome is not None:
                        outcomes[task_id] = outcome
                        made_progress = True
                        if self.progress is not None:
                            self.progress.update(
                                done=len(outcomes),
                                workers=len(self._processes),
                            )
                        continue
                    reclaimed = self.board.reclaim_if_stale(
                        cell.cell, "orchestrator", self.lease_ttl,
                        self.policy, cell.unit,
                    )
                    if reclaimed is not None:
                        self.log.emit(
                            "lease_reclaimed",
                            experiment=cell.unit.experiment,
                            key=cell.unit.key,
                            worker=reclaimed.worker,
                            attempt=reclaimed.attempt,
                        )
                    failed = self._quarantine_check(cell)
                    if failed is not None:
                        outcomes[task_id] = failed
                        made_progress = True
                self._tend_local_workers()
                if len(outcomes) >= len(pending):
                    break
                if not fallback_engaged and not self._processes:
                    waited = time.monotonic() - started
                    others = [
                        worker
                        for worker in self.board.fresh_workers(
                            self.lease_ttl + self.heartbeat_interval,
                            self.code_version,
                        )
                        if worker != inline.worker_id
                    ]
                    if waited > self.fallback_after and not others:
                        fallback_engaged = True
                        self.log.emit(
                            "steal_fallback", waited=round(waited, 2)
                        )
                if fallback_engaged:
                    if inline.run_once():
                        self.counters.fallback_cells += 1
                        made_progress = True
                if (
                    self.drain_timeout is not None
                    and time.monotonic() - started > self.drain_timeout
                ):
                    for task_id, cell in pending.items():
                        if task_id in outcomes:
                            continue
                        outcomes[task_id] = TaskOutcome(
                            unit=cell.unit,
                            failed=True,
                            error=(
                                "work-stealing drain timeout"
                                f" ({self.drain_timeout}s)"
                            ),
                            history=failed_attempts(
                                self.board.attempt_records(cell.cell)
                            ),
                        )
                    break
                if not made_progress:
                    time.sleep(self.poll_interval)
        except KeyboardInterrupt:
            self.counters.interrupted = True
            self.log.emit(
                "interrupted",
                completed=len(outcomes),
                remaining=len(pending) - len(outcomes),
            )
        finally:
            self._stop_local_workers(force=self.counters.interrupted)
            self._scan_journals()
            self._count_attempts(pending.values())
            # Successful cells leave the board: the durable layer is the
            # regular result cache, not the board.
            if not self.counters.interrupted:
                for task_id, cell in pending.items():
                    if task_id in outcomes and not outcomes[task_id].failed:
                        self.board.retire(cell.cell)
            self.board.clear_stop()
        counters = self.counters
        counters.cells_stolen = sum(
            count
            for worker, count in self.cells_by_worker.items()
            if worker != inline.worker_id
        )
        self.log.emit(
            "steal_summary",
            cells_by_worker=dict(sorted(self.cells_by_worker.items())),
            stolen=counters.cells_stolen,
            reclaimed=counters.leases_reclaimed,
            corrupt=counters.corrupt_results,
            duplicates=counters.duplicate_completions,
            fallback_cells=counters.fallback_cells,
            quarantined=counters.quarantined,
            torn_journals=counters.torn_journals,
        )
        return outcomes

    def _count_attempts(self, cells: Iterable[_PendingCell]) -> None:
        """Fold every cell's attempt journal into the counters.

        Read once, after the workers have drained, so late-landing
        records are never missed: any participant may reclaim a lease,
        and two ``ok`` records mean one cell ran twice (a lease race or
        violation, made harmless by determinism).
        """
        for cell in cells:
            records = self.board.attempt_records(cell.cell)
            statuses = [item.get("status") for item in records]
            self.counters.retries += self.policy.retries(records)
            self.counters.leases_reclaimed += statuses.count(RECLAIMED)
            self.counters.duplicate_completions += max(
                0, statuses.count(OK) - 1
            )


__all__ = [
    "BOARD_DIR",
    "Board",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_LEASE_TTL",
    "Lease",
    "WorkStealingExecutor",
    "WorkerLoop",
    "default_worker_id",
    "worker_loop",
]
