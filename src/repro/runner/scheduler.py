"""The execution seam and its backends: run cells, survive failures.

Two layers live here.  The :class:`Executor` protocol is the seam every
backend implements -- ``submit(unit) -> TaskOutcome`` -- shared by
``run_all``, :mod:`repro.serve`, and any future remote backend.  Behind
it sit three implementations:

* :class:`Scheduler` -- the multiprocessing pool (bulk-optimized via
  :meth:`Scheduler.run`): workers fed from a bounded task queue, each
  announcing a *claim* before running a cell so the parent always knows
  which cell died with a crashed worker.  Crashed or erroring cells are
  retried and quarantined by the shared
  :class:`~repro.runner.policy.FailurePolicy` -- a dead worker never
  loses the run, and never blocks the remaining cells.
* :class:`InProcessExecutor` -- the ``--jobs 1`` path: cells run in the
  calling process, same telemetry, no processes.
* :class:`AsyncInProcessExecutor` -- the :mod:`repro.serve` backend:
  ``submit`` is a coroutine that runs the cell on a worker thread under
  a concurrency semaphore, so a long-lived asyncio service stays
  responsive while cells execute.

Every backend (work stealing included) runs a cell through :func:`execute`:
under a fresh per-cell kernel count, timed, and sealed into a
:class:`ResultEnvelope` -- the pickled payload plus its SHA-256 -- so any
boundary can verify the bytes it received are the bytes the cell produced.
The counts travel on the :class:`TaskOutcome` beside the envelope.

Determinism comes from the units, not the schedule: every
:class:`~repro.runner.registry.Unit` carries its own stable seed and its
run function derives any internal RNG from the cell's identity, so results
are identical for any backend, any ``--jobs`` value, and any completion
order.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import queue as queue_module
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.sim.kernel import KernelCounts, kernel_count

from .policy import (
    CORRUPT,
    CRASH,
    ERROR,
    LOST,
    TIMEOUT,
    ChaosConfig,
    FailurePolicy,
    RunCounters,
)
from .progress import ProgressPrinter, RunLog
from .registry import Unit, ensure_default_experiments, get_experiment


class IntegrityError(RuntimeError):
    """A result envelope whose payload no longer matches its digest."""


@dataclass(frozen=True)
class ResultEnvelope:
    """A pickled cell result sealed with its SHA-256.

    Sealing hashes the exact serialized bytes, so the envelope can cross
    any boundary -- a worker result queue, an on-disk store, a service
    response -- and :meth:`open` will refuse a payload corrupted anywhere
    in between.
    """

    blob: bytes
    sha256: str
    #: Static/dynamic cross-certification verdict carried by the payload
    #: (``certified`` key of an assembled result), when it has one.  None
    #: means the payload makes no certification claim.
    certified: Optional[bool] = None

    @classmethod
    def seal(cls, value: Any) -> "ResultEnvelope":
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        certified = (
            value.get("certified") if isinstance(value, Mapping) else None
        )
        return cls(
            blob=blob,
            sha256=hashlib.sha256(blob).hexdigest(),
            certified=certified,
        )

    @property
    def intact(self) -> bool:
        return hashlib.sha256(self.blob).hexdigest() == self.sha256

    def open(self) -> Any:
        """Verify the digest and unpickle the payload."""
        if not self.intact:
            raise IntegrityError(
                "result payload failed its integrity check"
            )
        return pickle.loads(self.blob)


@dataclass
class TaskOutcome:
    """Terminal state of one scheduled cell."""

    unit: Unit
    value: Any = None
    elapsed: float = 0.0
    #: Pool workers are numbered; distributed workers carry string ids.
    worker: Optional[Union[int, str]] = None
    attempts: int = 1
    cached: bool = False
    failed: bool = False
    error: Optional[str] = None
    #: Sealed form of ``value``; set on every freshly run cell.
    envelope: Optional[ResultEnvelope] = None
    #: The record of every failed attempt (see
    #: :meth:`~repro.runner.policy.FailurePolicy.record`) -- the quarantine
    #: manifest's evidence.
    history: List[Dict[str, Any]] = field(default_factory=list)
    #: Run-kernel engagement of the run that produced ``value``; zero for
    #: cache hits and failures.
    kernel: KernelCounts = field(default_factory=KernelCounts)


def execute(unit: Unit) -> TaskOutcome:
    """Run one cell under a fresh kernel count; time it and seal it.

    A cell that raises comes back as ``TaskOutcome(failed=True)`` with
    its traceback; ``KeyboardInterrupt`` and ``SystemExit`` propagate.
    Every backend runs its cells through here, so the counts, the clock
    and the envelope mean the same thing under each of them.
    """
    start = time.perf_counter()
    with kernel_count() as kernel:
        try:
            value = get_experiment(unit.experiment).run(dict(unit.params))
        except Exception:
            return TaskOutcome(
                unit, failed=True, error=traceback.format_exc(),
                elapsed=time.perf_counter() - start,
            )
    elapsed = time.perf_counter() - start
    return TaskOutcome(
        unit, value, elapsed, envelope=ResultEnvelope.seal(value), kernel=kernel
    )


class Executor:
    """The execution seam: submit one cell, receive its terminal outcome.

    ``submit`` never raises for a failing cell -- failures come back as
    ``TaskOutcome(failed=True)`` -- so callers treat every backend
    uniformly.  Implementations may be synchronous (returning the
    outcome directly) or asynchronous (``submit`` defined as a
    coroutine function, as in :class:`AsyncInProcessExecutor`); async-
    aware callers await what they get.
    """

    #: What the backend counted while running cells; ``run_all`` reports it.
    counters: RunCounters

    def submit(self, unit: Unit) -> TaskOutcome:
        raise NotImplementedError

    def run(self, units: List[Tuple[int, Unit]]) -> Dict[int, TaskOutcome]:
        """Bulk execution: the outcomes of ``(task_id, unit)`` pairs by id."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (worker pools, threads)."""


class InProcessExecutor(Executor):
    """Run cells in the calling process (the ``--jobs 1`` path).

    Emits the same ``unit_done`` telemetry as the process pool.  Every
    outcome carries its :class:`ResultEnvelope`, which :mod:`repro.serve`
    uses to hand integrity-checked bytes to its result store.
    """

    def __init__(self, log: Optional[RunLog] = None) -> None:
        self.log = log or RunLog(None)
        self.counters = RunCounters()

    def submit(self, unit: Unit) -> TaskOutcome:
        outcome = execute(unit)
        if outcome.failed:
            self.log.emit(
                "unit_done",
                experiment=unit.experiment,
                key=unit.key,
                status="failed",
                error=outcome.error.splitlines()[-1],
            )
            return outcome
        outcome.worker = 0
        self.log.emit(
            "unit_done",
            experiment=unit.experiment,
            key=unit.key,
            status="ok",
            cached=False,
            elapsed=round(outcome.elapsed, 4),
            worker=0,
            attempts=1,
        )
        return outcome

    def run(self, units: List[Tuple[int, Unit]]) -> Dict[int, TaskOutcome]:
        """Submit each cell in order; Ctrl-C returns the outcomes so far
        (``run_all`` reads the shortfall as an interrupted run)."""
        outcomes: Dict[int, TaskOutcome] = {}
        for task_id, unit in units:
            try:
                outcomes[task_id] = self.submit(unit)
            except KeyboardInterrupt:
                self.counters.interrupted = True
                self.log.emit(
                    "interrupted",
                    completed=len(outcomes),
                    remaining=len(units) - len(outcomes),
                )
                break
        self.counters.worker_busy[0] = sum(
            outcome.elapsed for outcome in outcomes.values()
        )
        return outcomes


class AsyncInProcessExecutor(Executor):
    """Asyncio backend: cells run on worker threads, outcomes sealed.

    ``submit`` is a coroutine: it acquires a concurrency semaphore and
    runs the cell via :func:`asyncio.to_thread`, so an event loop can
    keep serving requests while simulations execute.  Each thread runs
    in a copy of the caller's context, so its cell's kernel count is its
    own.  The semaphore is created lazily on the first running loop and
    the executor is bound to it from then on -- one executor per service
    lifetime.
    """

    def __init__(
        self,
        max_concurrency: int = 2,
        log: Optional[RunLog] = None,
    ) -> None:
        self.max_concurrency = max(1, max_concurrency)
        self._inner = InProcessExecutor(log=log)
        self._semaphore: Optional[Any] = None

    async def submit(self, unit: Unit) -> TaskOutcome:  # type: ignore[override]
        import asyncio

        if self._semaphore is None:
            self._semaphore = asyncio.Semaphore(self.max_concurrency)
        async with self._semaphore:
            return await asyncio.to_thread(self._inner.submit, unit)


def _worker_main(
    worker_id: int,
    task_queue: "multiprocessing.Queue",
    result_queue: "multiprocessing.Queue",
    chaos: Optional[ChaosConfig] = None,
) -> None:
    """Worker loop: claim, run, report; exit on the ``None`` sentinel.

    Successful results travel as an *integrity envelope*: the pickled
    payload plus its SHA-256, hashed worker-side over the exact bytes put
    on the queue, so the parent can reject a payload corrupted anywhere
    between ``run`` returning and the queue read (or by the chaos mode
    that simulates exactly that).  The cell's kernel counts ride beside
    the envelope in the same ``"ok"`` message.

    With a :class:`~repro.runner.policy.ChaosConfig`, the worker misbehaves
    deterministically per ``(cell, attempt)``: hanging (to exercise the
    parent's watchdog), dying without a word (crash recovery), tampering
    with the payload after hashing (envelope verification), or failing on
    every attempt (poison-cell quarantine).
    """
    ensure_default_experiments()
    # Ctrl-C reaches the whole process group; the parent answers it by
    # terminating the pool, so a worker keeps computing until then.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        item = task_queue.get()
        if item is None:
            return
        task_id, unit, attempt = item
        result_queue.put(("claim", worker_id, task_id, None, 0.0))
        fault = (
            chaos.fault_for(unit.ident, attempt) if chaos is not None else None
        )
        if fault == "hang":
            time.sleep(chaos.hang_seconds)
        elif fault == "crash":
            os._exit(113)
        outcome = (
            TaskOutcome(
                unit, failed=True,
                error=f"RuntimeError: chaos: poisoned cell {unit.ident}",
            )
            if fault == "poison" else execute(unit)
        )
        if outcome.failed:
            result_queue.put(
                ("err", worker_id, task_id, outcome.error, outcome.elapsed)
            )
            continue
        blob = outcome.envelope.blob
        if fault == "corrupt-result":
            tampered = bytearray(blob)
            tampered[len(tampered) // 2] ^= 0xFF
            blob = bytes(tampered)
        result_queue.put(
            (
                "ok",
                worker_id,
                task_id,
                (blob, outcome.envelope.sha256, outcome.kernel),
                outcome.elapsed,
            )
        )


class Scheduler(Executor):
    """Run units across ``jobs`` worker processes (see module docstring).

    The bulk path is :meth:`run`; :meth:`submit` satisfies the
    :class:`Executor` protocol for one-off cells but spins the pool up
    and down per call -- services wanting per-cell submission should use
    :class:`AsyncInProcessExecutor` (or keep a bulk batch per job).
    """

    def __init__(
        self,
        jobs: int,
        max_retries: int = 2,
        backoff: float = 0.05,
        log: Optional[RunLog] = None,
        progress: Optional[ProgressPrinter] = None,
        poll_interval: float = 0.1,
        task_timeout: Optional[float] = None,
        chaos: Optional[ChaosConfig] = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self.policy = FailurePolicy(max_retries, backoff)
        self.log = log or RunLog(None)
        self.progress = progress
        self.poll_interval = poll_interval
        #: Wall-clock budget per cell attempt; a claim outstanding longer
        #: gets its worker killed and the cell requeued with backoff.
        self.task_timeout = task_timeout
        self.chaos = chaos
        self.counters = RunCounters()
        # ``fork`` keeps test-registered experiments visible to workers and
        # avoids re-importing the package per process; fall back to the
        # platform default where fork does not exist.
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._ctx = multiprocessing.get_context()

    def submit(self, unit: Unit) -> TaskOutcome:
        """One-cell convenience over :meth:`run` (pool per call)."""
        return self.run([(0, unit)])[0]

    # -- internals -----------------------------------------------------------------

    def _spawn_worker(self, worker_id: int, task_queue, result_queue):
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, task_queue, result_queue, self.chaos),
            daemon=True,
            name=f"repro-worker-{worker_id}",
        )
        process.start()
        return process

    def run(self, units: List[Tuple[int, Unit]]) -> Dict[int, TaskOutcome]:
        """Execute ``(task_id, unit)`` pairs; returns outcomes by task id."""
        if not units:
            return {}
        jobs = min(self.jobs, len(units))
        task_queue = self._ctx.Queue(maxsize=max(2, 2 * jobs))
        result_queue = self._ctx.Queue()
        by_id = {task_id: unit for task_id, unit in units}

        #: (task_id, not_before) cells awaiting dispatch.
        pending: deque = deque((task_id, 0.0) for task_id, _unit in units)
        #: task_id -> worker currently executing it.
        claimed: Dict[int, int] = {}
        #: task_id -> monotonic claim time (the watchdog's clock).
        claim_times: Dict[int, float] = {}
        #: Cells handed to the queue whose fate is unknown.
        dispatched: set = set()
        outcomes: Dict[int, TaskOutcome] = {}

        self._next_worker_id = jobs
        workers: Dict[int, Any] = {}
        for worker_id in range(jobs):
            workers[worker_id] = self._spawn_worker(
                worker_id, task_queue, result_queue
            )
            self.counters.worker_busy.setdefault(worker_id, 0.0)

        #: task_id -> its failed attempts' records (the quarantine evidence).
        history: Dict[int, List[Dict[str, Any]]] = {
            task_id: [] for task_id, _unit in units
        }

        def schedule_retry(
            task_id: int,
            status: str,
            error: str,
            worker: Optional[Union[int, str]] = None,
        ) -> None:
            unit = by_id[task_id]
            attempt = self.policy.next_attempt(history[task_id])
            record = self.policy.record(unit, attempt, status, worker, error)
            history[task_id].append(record)
            if not self.policy.exhausted(history[task_id]):
                pending.append(
                    (task_id, time.monotonic() + record["backoff"])
                )
                self.counters.retries += 1
                self.log.emit(
                    "retry",
                    experiment=unit.experiment,
                    key=unit.key,
                    attempt=record["attempt"],
                    backoff=round(record["backoff"], 3),
                    reason=status,
                )
                return
            self.counters.quarantined += 1
            outcomes[task_id] = TaskOutcome(
                unit=unit,
                failed=True,
                error=error,
                attempts=record["attempt"],
                history=list(history[task_id]),
            )
            self.log.emit(
                "unit_done",
                experiment=unit.experiment,
                key=unit.key,
                status="failed",
                attempts=record["attempt"],
                error=record["error"],
            )

        try:
            while len(outcomes) < len(by_id):
                # Feed the bounded queue from the pending deque.
                now = time.monotonic()
                deferred = []
                while pending:
                    task_id, not_before = pending.popleft()
                    if not_before > now:
                        deferred.append((task_id, not_before))
                        continue
                    try:
                        attempt = self.policy.next_attempt(history[task_id])
                        task_queue.put_nowait(
                            (task_id, by_id[task_id], attempt)
                        )
                        dispatched.add(task_id)
                    except queue_module.Full:
                        deferred.append((task_id, not_before))
                        break
                pending.extend(deferred)

                # Drain results.
                try:
                    kind, worker_id, task_id, payload, elapsed = (
                        result_queue.get(timeout=self.poll_interval)
                    )
                except queue_module.Empty:
                    self._watchdog(
                        workers, by_id, claimed, claim_times, dispatched,
                        task_queue, result_queue, schedule_retry,
                    )
                    self._check_workers(
                        workers, claimed, claim_times, dispatched, outcomes,
                        pending, task_queue, result_queue, schedule_retry,
                    )
                    # A worker can die between dequeuing a task and claiming
                    # it; if everything is quiet but cells are unaccounted
                    # for, re-dispatch them (duplicate completions are
                    # ignored, and cells are deterministic anyway).
                    if (
                        not pending
                        and not claimed
                        and task_queue.empty()
                        and len(outcomes) < len(by_id)
                    ):
                        lost = [
                            task_id
                            for task_id in dispatched
                            if task_id not in outcomes
                        ]
                        for task_id in lost:
                            schedule_retry(task_id, LOST, "task lost in flight")
                    continue

                if kind == "claim":
                    claimed[task_id] = worker_id
                    claim_times[task_id] = time.monotonic()
                    continue
                claimed.pop(task_id, None)
                claim_times.pop(task_id, None)
                dispatched.discard(task_id)
                busy = self.counters.worker_busy
                busy[worker_id] = busy.get(worker_id, 0.0) + elapsed
                if task_id in outcomes:
                    continue  # duplicate completion after a lost-task retry
                unit = by_id[task_id]
                if kind == "ok":
                    blob, sha256, kernel = payload
                    envelope = ResultEnvelope(blob, sha256)
                    try:
                        value = envelope.open()
                    except IntegrityError as error:
                        self.counters.corrupt_results += 1
                        self.log.emit(
                            "corrupt_result",
                            experiment=unit.experiment,
                            key=unit.key,
                            worker=worker_id,
                        )
                        schedule_retry(
                            task_id, CORRUPT, str(error), worker=worker_id
                        )
                        continue
                    outcomes[task_id] = TaskOutcome(
                        unit=unit,
                        value=value,
                        elapsed=elapsed,
                        worker=worker_id,
                        attempts=self.policy.next_attempt(history[task_id]),
                        envelope=envelope,
                        history=list(history[task_id]),
                        kernel=kernel,
                    )
                    self.log.emit(
                        "unit_done",
                        experiment=unit.experiment,
                        key=unit.key,
                        status="ok",
                        cached=False,
                        elapsed=round(elapsed, 4),
                        worker=worker_id,
                        attempts=self.policy.next_attempt(history[task_id]),
                    )
                    if self.progress is not None:
                        self.progress.update(
                            done=len(outcomes),
                            retries=self.counters.retries,
                            workers=len(workers),
                        )
                else:  # "err"
                    schedule_retry(task_id, ERROR, payload, worker=worker_id)

                self._watchdog(
                    workers, by_id, claimed, claim_times, dispatched,
                    task_queue, result_queue, schedule_retry,
                )
                self._check_workers(
                    workers, claimed, claim_times, dispatched, outcomes,
                    pending, task_queue, result_queue, schedule_retry,
                )
        except KeyboardInterrupt:
            self.counters.interrupted = True
            self.log.emit(
                "interrupted",
                completed=len(outcomes),
                remaining=len(by_id) - len(outcomes),
            )
        finally:
            self._shutdown(
                workers, task_queue, force=self.counters.interrupted
            )
        return outcomes

    def _watchdog(
        self,
        workers,
        by_id,
        claimed,
        claim_times,
        dispatched,
        task_queue,
        result_queue,
        schedule_retry,
    ) -> None:
        """Kill workers whose claimed cell exceeded ``task_timeout``.

        The hung cell is requeued (with the usual backoff and retry
        budget), a replacement worker is spawned, and the kill is recorded
        as a ``watchdog_kill`` log event -- so a single wedged cell can
        slow a run down but never wedge it.
        """
        if self.task_timeout is None:
            return
        now = time.monotonic()
        for task_id, since in list(claim_times.items()):
            if now - since <= self.task_timeout:
                continue
            claim_times.pop(task_id, None)
            worker_id = claimed.pop(task_id, None)
            if worker_id is None:
                continue
            dispatched.discard(task_id)
            unit = by_id[task_id]
            self.counters.watchdog_kills += 1
            self.log.emit(
                "watchdog_kill",
                worker=worker_id,
                experiment=unit.experiment,
                key=unit.key,
                timeout=self.task_timeout,
            )
            process = workers.pop(worker_id, None)
            if process is not None:
                process.kill()
                process.join(timeout=2.0)
                replacement_id = self._next_worker_id
                self._next_worker_id += 1
                workers[replacement_id] = self._spawn_worker(
                    replacement_id, task_queue, result_queue
                )
                self.counters.worker_busy.setdefault(replacement_id, 0.0)
            schedule_retry(
                task_id,
                TIMEOUT,
                f"cell exceeded the {self.task_timeout}s watchdog timeout",
                worker=worker_id,
            )

    def _check_workers(
        self,
        workers,
        claimed,
        claim_times,
        dispatched,
        outcomes,
        pending,
        task_queue,
        result_queue,
        schedule_retry,
    ) -> None:
        """Detect crashed workers, recover their cells, and respawn."""
        for worker_id, process in list(workers.items()):
            if process.is_alive():
                continue
            # Workers only exit on the shutdown sentinel, which is sent
            # after this loop finishes -- a dead worker here is a crash.
            self.counters.worker_crashes += 1
            self.log.emit(
                "worker_crash",
                worker=worker_id,
                pid=process.pid,
                exitcode=process.exitcode,
            )
            del workers[worker_id]
            for task_id, claimant in list(claimed.items()):
                if claimant == worker_id:
                    del claimed[task_id]
                    claim_times.pop(task_id, None)
                    dispatched.discard(task_id)
                    schedule_retry(
                        task_id,
                        CRASH,
                        f"worker {worker_id} died (exit {process.exitcode})",
                        worker=worker_id,
                    )
            replacement_id = self._next_worker_id
            self._next_worker_id += 1
            workers[replacement_id] = self._spawn_worker(
                replacement_id, task_queue, result_queue
            )
            self.counters.worker_busy.setdefault(replacement_id, 0.0)

    def _shutdown(self, workers, task_queue, force: bool = False) -> None:
        """Stop all workers; ``force`` terminates without draining.

        The forced path serves Ctrl-C: workers are terminated mid-cell,
        so waiting for sentinel pickup would hang on a full queue.  The
        graceful path sends one sentinel per worker and joins them within
        a shared deadline, terminating any that outstay it.
        """
        if force:
            for process in workers.values():
                process.terminate()
            for process in workers.values():
                process.join(timeout=2.0)
            for process in workers.values():
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.kill()
                    process.join(timeout=1.0)
            task_queue.close()
            task_queue.cancel_join_thread()
            return
        for _ in workers:
            try:
                task_queue.put_nowait(None)
            except queue_module.Full:  # pragma: no cover - tiny queue race
                pass
        deadline = time.monotonic() + 5.0
        for process in workers.values():
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in workers.values():
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
        task_queue.close()
        task_queue.cancel_join_thread()
