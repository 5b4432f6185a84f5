"""The execution seam and its backends: run cells, survive failures.

Two layers live here.  The :class:`Executor` protocol is the seam
``run_all`` drives every backend through -- ``run(cells) -> outcomes``,
its ``counters`` and ``close`` -- and two of its implementations sit
behind it (work stealing, in :mod:`repro.runner.distributed`, is the
third):

* :class:`Scheduler` -- the multiprocessing pool: each worker has an
  inbox of at most :data:`INBOX_CELLS` cells, which the parent fills by
  :func:`pick_cell` -- cells of one affinity group to one worker where
  it can -- and announces a *claim* before running a cell, so the
  parent always knows which cell died with a crashed worker and which
  never started.  Crashed or erroring cells are retried and quarantined
  by the shared :class:`~repro.runner.policy.FailurePolicy` -- a dead
  worker never loses the run, and never blocks the remaining cells.
* :class:`InProcessExecutor` -- the ``--jobs 1`` path: cells run in the
  calling process, same telemetry, no processes.  Its
  :meth:`~InProcessExecutor.submit` runs one cell, which is how
  :mod:`repro.serve` runs each fresh cell on its one cell thread.

Every backend (work stealing included) runs a cell through :func:`execute`:
under a fresh per-cell kernel count, timed, and sealed into a
:class:`ResultEnvelope` -- the pickled payload plus its SHA-256 -- so any
boundary can verify the bytes it received are the bytes the cell produced.
The counts travel on the :class:`TaskOutcome` beside the envelope, and
the outcome is a finished cell's one record: the result cache and the
work-stealing board keep it in one at-rest encoding, read back verified,
and every backend logs the ``unit_done`` event it renders.

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
import signal
import time
import traceback
from bisect import insort
from collections import Counter
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import (
    Any,
    Collection,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.sim.kernel import KernelCounts, kernel_count

from .policy import (
    CORRUPT,
    CRASH,
    ERROR,
    TIMEOUT,
    ChaosConfig,
    FailurePolicy,
    RunCounters,
)
from .progress import ProgressPrinter, RunLog
from .registry import Unit, ensure_default_experiments, get_experiment


class IntegrityError(RuntimeError):
    """A result that cannot be vouched for: a payload that no longer
    matches its digest, or a stored record that is torn or names another
    cell."""


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

    @classmethod
    def seal(cls, value: Any) -> "ResultEnvelope":
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        return cls(blob=blob, sha256=hashlib.sha256(blob).hexdigest())

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
    """Terminal state of one scheduled cell.

    A finished cell has one record under every executor and at rest:
    this outcome, carrying the :class:`ResultEnvelope` its worker sealed.
    :meth:`encode` and :meth:`decode` are its one on-disk form, kept by
    the result cache and the work-stealing board alike, and
    :meth:`done_fields` its one ``unit_done`` event.
    """

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

    def encode(self, code_version: str) -> bytes:
        """The at-rest record of this finished cell.

        It keeps the envelope's blob and SHA-256 as the worker sealed
        them, beside the cell's identity under ``code_version`` (see
        :meth:`~repro.runner.registry.Unit.identity`), the elapsed time,
        the worker and the kernel counts.  The value is not pickled again.
        """
        return pickle.dumps(
            {
                "identity": self.unit.identity(code_version),
                "elapsed": self.elapsed,
                "worker": self.worker,
                "kernel": self.kernel,
                "sha256": self.envelope.sha256,
                "blob": self.envelope.blob,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    @classmethod
    def decode(
        cls, unit: Unit, code_version: str, data: bytes
    ) -> "TaskOutcome":
        """Read an :meth:`encode` record back as ``unit``'s outcome.

        Raises :class:`IntegrityError` for bytes that are no whole record,
        a record naming another cell or code version, or a blob that
        fails its SHA-256.
        """
        try:
            # Damaged pickle bytes can raise almost any exception.
            record = pickle.loads(data)
            identity = record["identity"]
            outcome = cls(
                unit,
                elapsed=record["elapsed"],
                worker=record["worker"],
                envelope=ResultEnvelope(record["blob"], record["sha256"]),
                kernel=record["kernel"],
            )
        except Exception:
            raise IntegrityError(
                "unreadable result record (torn or truncated write)"
            ) from None
        if identity != unit.identity(code_version):
            raise IntegrityError(
                "result record names another cell or code version"
            )
        outcome.value = outcome.envelope.open()
        return outcome

    def done_fields(self) -> Dict[str, Any]:
        """This cell's ``unit_done`` event, the same under every executor.

        ``experiment``, ``key``, ``status``, ``cached`` and ``elapsed``
        always; ``worker``, ``attempts`` and the error's last line where
        known (a cache hit ran no attempt in this run).
        """
        fields: Dict[str, Any] = {
            "experiment": self.unit.experiment,
            "key": self.unit.key,
            "status": "failed" if self.failed else "ok",
            "cached": self.cached,
            "elapsed": round(self.elapsed, 4),
        }
        if self.worker is not None:
            fields["worker"] = self.worker
        if not self.cached:
            fields["attempts"] = self.attempts
        if self.error:
            fields["error"] = self.error.splitlines()[-1]
        return fields


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
    """The execution seam: run a batch of cells, receive their outcomes.

    ``run`` never raises for a failing cell -- failures come back as
    ``TaskOutcome(failed=True)`` -- so ``run_all`` treats every backend
    uniformly.
    """

    #: What the backend counted while running cells; ``run_all`` reports it.
    counters: RunCounters

    def run(self, units: List[Tuple[int, Unit]]) -> Dict[int, TaskOutcome]:
        """Bulk execution: the outcomes of ``(task_id, unit)`` pairs by id."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (worker processes)."""


class InProcessExecutor(Executor):
    """Run cells in the calling process (the ``--jobs 1`` path).

    Emits the same ``unit_done`` telemetry as the process pool.  Every
    outcome carries its :class:`ResultEnvelope`, which :mod:`repro.serve`
    hands to its cell cache as sealed.
    """

    def __init__(self, log: Optional[RunLog] = None) -> None:
        self.log = log or RunLog(None)
        self.counters = RunCounters()

    def submit(self, unit: Unit) -> TaskOutcome:
        outcome = execute(unit)
        outcome.worker = 0
        self.log.emit("unit_done", **outcome.done_fields())
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


#: Cells a pool worker's inbox holds at once: the one it runs, and the
#: one it runs next.
INBOX_CELLS = 2


def pick_cell(
    ready: Sequence[int],
    group_of: Mapping[int, Hashable],
    mine: Optional[Hashable],
    held: Collection[Hashable],
) -> Optional[int]:
    """The cell a pool worker holding affinity group ``mine`` runs next.

    ``ready`` lists the cells that may run now, in enumeration order,
    ``group_of`` maps a cell to its group (a cell it lacks has none; see
    :meth:`~repro.runner.registry.Experiment.affinity`), and ``held``
    holds every group another worker holds.  The pick, in order:

    1. the next ready cell of ``mine``;
    2. else the first ready cell that has no group, or whose group no
       worker holds;
    3. else the first ready cell of the group with the most ready cells.

    The worker then holds the picked cell's group (or none).  Without
    groups, rule 2 is plain enumeration order.  None when nothing is
    ready.
    """
    if mine is not None:
        for cell in ready:
            if group_of.get(cell) == mine:
                return cell
    for cell in ready:
        group = group_of.get(cell)
        if group is None or group not in held:
            return cell
    if not ready:
        return None
    sizes = Counter(group_of[cell] for cell in ready)
    busiest = max(sizes, key=sizes.__getitem__)
    return next(cell for cell in ready if group_of[cell] == busiest)


def _affinity(unit: Unit) -> Optional[Hashable]:
    try:
        experiment = get_experiment(unit.experiment)
    except KeyError:
        return None  # The worker reports the unknown experiment.
    return experiment.affinity(unit.params)


def _worker_main(
    conn: "multiprocessing.connection.Connection",
    chaos: Optional[ChaosConfig] = None,
) -> None:
    """Worker loop: take a cell from the inbox, claim it, run it, report;
    exit on the ``None`` sentinel.

    Every message to the parent is written to the connection before the
    next step, so a worker that dies leaves the parent every claim and
    result it sent: the parent knows exactly which cell it died in, and
    which inbox cells it never started.

    Successful results travel as an *integrity envelope*: the pickled
    payload plus its SHA-256, hashed worker-side over the exact bytes
    sent, so the parent can reject a payload corrupted anywhere between
    ``run`` returning and the read (or by the chaos mode that simulates
    exactly that).  The cell's kernel counts ride beside the envelope in
    the same ``"ok"`` message.

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
        try:
            item = conn.recv()
        except EOFError:
            return  # The parent is gone.
        if item is None:
            return
        cell, unit, attempt = item
        conn.send(("claim", cell))
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
            conn.send(("err", cell, outcome.error, outcome.elapsed))
            continue
        blob = outcome.envelope.blob
        if fault == "corrupt-result":
            tampered = bytearray(blob)
            tampered[len(tampered) // 2] ^= 0xFF
            blob = bytes(tampered)
        conn.send(
            (
                "ok",
                cell,
                (blob, outcome.envelope.sha256, outcome.kernel),
                outcome.elapsed,
            )
        )


class _Worker:
    """The parent's view of one pool worker."""

    __slots__ = ("number", "process", "conn", "inbox", "claimed", "since", "group")

    def __init__(
        self,
        number: int,
        process: Any,
        conn: "multiprocessing.connection.Connection",
    ) -> None:
        self.number = number
        self.process = process
        self.conn = conn
        #: Cells sent and not yet answered, in the order the worker runs
        #: them (at most :data:`INBOX_CELLS`).
        self.inbox: List[int] = []
        #: The inbox cell whose claim arrived, and the claim's time (the
        #: watchdog's clock).
        self.claimed: Optional[int] = None
        self.since = 0.0
        #: The affinity group of the cell it was given last.
        self.group: Optional[Hashable] = None


class Scheduler(Executor):
    """Run units across ``jobs`` worker processes (see module docstring)."""

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

    def run(self, units: List[Tuple[int, Unit]]) -> Dict[int, TaskOutcome]:
        """Execute ``(task_id, unit)`` pairs; returns outcomes by task id.
        The list's order is the enumeration order dispatch follows."""
        if not units:
            return {}
        return _PoolRun(self, units).run()


class _PoolRun:
    """One :meth:`Scheduler.run`: its cells, its workers and its loop.

    Cells are numbered by their place in the run's list.  A cell is
    *ready* (in ``ready``, in enumeration order), *waiting* out a retry's
    backoff (in the ``waiting`` heap), in one worker's inbox, or done (in
    ``outcomes``, by task id).
    """

    def __init__(
        self, scheduler: Scheduler, units: List[Tuple[int, Unit]]
    ) -> None:
        self.scheduler = scheduler
        self.policy = scheduler.policy
        self.counters = scheduler.counters
        self.log = scheduler.log
        self.ids = [task_id for task_id, _unit in units]
        self.units = [unit for _task_id, unit in units]
        self.group_of: Dict[int, Hashable] = {}
        for cell, unit in enumerate(self.units):
            group = _affinity(unit)
            if group is not None:
                self.group_of[cell] = group
        self.ready: List[int] = list(range(len(units)))
        #: (not_before, cell) of cells waiting out a retry's backoff.
        self.waiting: List[Tuple[float, int]] = []
        #: Each cell's failed attempts' records (the quarantine evidence).
        self.history: List[List[Dict[str, Any]]] = [[] for _ in units]
        self.outcomes: Dict[int, TaskOutcome] = {}
        self.workers: Dict[int, _Worker] = {}
        self._next_worker = 0

    def run(self) -> Dict[int, TaskOutcome]:
        for _ in range(min(self.scheduler.jobs, len(self.units))):
            self._spawn()
        try:
            while len(self.outcomes) < len(self.units):
                now = time.monotonic()
                while self.waiting and self.waiting[0][0] <= now:
                    insort(self.ready, heappop(self.waiting)[1])
                self._dispatch()
                self._receive()
                self._watchdog()
                self._check_workers()
        except KeyboardInterrupt:
            self.counters.interrupted = True
            self.log.emit(
                "interrupted",
                completed=len(self.outcomes),
                remaining=len(self.units) - len(self.outcomes),
            )
        finally:
            self._shutdown(force=self.counters.interrupted)
        return self.outcomes

    # -- workers -------------------------------------------------------------------

    def _spawn(self) -> None:
        number = self._next_worker
        self._next_worker += 1
        parent_end, child_end = self.scheduler._ctx.Pipe()
        process = self.scheduler._ctx.Process(
            target=_worker_main,
            args=(child_end, self.scheduler.chaos),
            daemon=True,
            name=f"repro-worker-{number}",
        )
        process.start()
        # Only the worker may hold its end, so the parent reads EOF once
        # the worker is gone.
        child_end.close()
        self.workers[number] = _Worker(number, process, parent_end)
        self.counters.worker_busy.setdefault(number, 0.0)

    def _dispatch(self) -> None:
        """Top up every inbox by :func:`pick_cell`, one cell per worker
        per round, so the first cells spread like a shared queue's."""
        for depth in range(INBOX_CELLS):
            for worker in self.workers.values():
                if len(worker.inbox) > depth or not self.ready:
                    continue
                held = {
                    other.group for other in self.workers.values()
                    if other is not worker and other.group is not None
                }
                cell = pick_cell(self.ready, self.group_of, worker.group, held)
                attempt = self.policy.next_attempt(self.history[cell])
                try:
                    worker.conn.send((cell, self.units[cell], attempt))
                except OSError:
                    continue  # Dead: _check_workers recovers it.
                self.ready.remove(cell)
                worker.inbox.append(cell)
                worker.group = self.group_of.get(cell)

    def _receive(self) -> None:
        """Handle every message that arrives within one poll interval."""
        # Imported here: serve and the in-process path use no pipes.
        from multiprocessing.connection import wait

        conns = {worker.conn: worker for worker in self.workers.values()}
        timeout = self.scheduler.poll_interval
        if self.waiting:
            timeout = max(0.0, min(timeout, self.waiting[0][0] - time.monotonic()))
        for conn in wait(list(conns), timeout):
            worker = conns[conn]
            if not self._drain(worker):
                # The worker's end closed: let it finish dying, so
                # _check_workers sees it gone.
                worker.process.join(timeout=1.0)

    def _drain(self, worker: _Worker) -> bool:
        """Handle every message waiting from ``worker``; False once its
        end of the connection has closed."""
        try:
            while worker.conn.poll():
                self._handle(worker, worker.conn.recv())
        except (EOFError, OSError):
            return False
        return True

    def _handle(self, worker: _Worker, message: tuple) -> None:
        kind, cell, *answer = message
        if kind == "claim":
            worker.claimed = cell
            worker.since = time.monotonic()
            return
        payload, elapsed = answer
        worker.inbox.remove(cell)
        worker.claimed = None
        busy = self.counters.worker_busy
        busy[worker.number] = busy.get(worker.number, 0.0) + elapsed
        unit = self.units[cell]
        if kind == "err":
            self._retry(cell, ERROR, payload, worker.number)
            return
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
                worker=worker.number,
            )
            self._retry(cell, CORRUPT, str(error), worker.number)
            return
        outcome = self.outcomes[self.ids[cell]] = TaskOutcome(
            unit=unit,
            value=value,
            elapsed=elapsed,
            worker=worker.number,
            attempts=self.policy.next_attempt(self.history[cell]),
            envelope=envelope,
            history=list(self.history[cell]),
            kernel=kernel,
        )
        self.log.emit("unit_done", **outcome.done_fields())
        progress = self.scheduler.progress
        if progress is not None:
            progress.update(
                done=len(self.outcomes),
                retries=self.counters.retries,
                workers=len(self.workers),
            )

    def _retry(
        self,
        cell: int,
        status: str,
        error: str,
        worker: Optional[Union[int, str]] = None,
    ) -> None:
        """Charge ``cell`` a failed attempt: wait out its backoff, or
        quarantine it once its budget is spent."""
        unit = self.units[cell]
        history = self.history[cell]
        attempt = self.policy.next_attempt(history)
        record = self.policy.record(unit, attempt, status, worker, error)
        history.append(record)
        if not self.policy.exhausted(history):
            heappush(self.waiting, (time.monotonic() + record["backoff"], cell))
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
        outcome = self.outcomes[self.ids[cell]] = TaskOutcome(
            unit=unit,
            worker=worker,
            attempts=record["attempt"],
            failed=True,
            error=error,
            history=list(history),
        )
        self.log.emit("unit_done", **outcome.done_fields())

    def _retire(self, worker: _Worker, status: str, error: str) -> None:
        """Replace a dead or killed worker.

        Whatever it sent before it went is handled first.  The cell it
        had claimed is charged ``status``; the cells still unclaimed in
        its inbox never started, so they go back to ready uncharged.
        """
        self._drain(worker)
        del self.workers[worker.number]
        worker.conn.close()
        if worker.claimed is not None:
            worker.inbox.remove(worker.claimed)
            self._retry(worker.claimed, status, error, worker.number)
        for cell in worker.inbox:
            insort(self.ready, cell)
        self._spawn()

    def _watchdog(self) -> None:
        """Kill workers whose claimed cell exceeded ``task_timeout``.

        The hung cell is requeued (with the usual backoff and retry
        budget), a replacement worker is spawned, and the kill is recorded
        as a ``watchdog_kill`` log event -- so a single wedged cell can
        slow a run down but never wedge it.
        """
        timeout = self.scheduler.task_timeout
        if timeout is None:
            return
        now = time.monotonic()
        for worker in list(self.workers.values()):
            if worker.claimed is None or now - worker.since <= timeout:
                continue
            unit = self.units[worker.claimed]
            self.counters.watchdog_kills += 1
            self.log.emit(
                "watchdog_kill",
                worker=worker.number,
                experiment=unit.experiment,
                key=unit.key,
                timeout=timeout,
            )
            worker.process.kill()
            worker.process.join(timeout=2.0)
            self._retire(
                worker, TIMEOUT, f"cell exceeded the {timeout}s watchdog timeout"
            )

    def _check_workers(self) -> None:
        """Detect crashed workers, recover their cells, and respawn."""
        for worker in list(self.workers.values()):
            if worker.process.is_alive():
                continue
            # Workers only exit on the shutdown sentinel, which is sent
            # after the loop finishes -- a dead worker here is a crash.
            self.counters.worker_crashes += 1
            self.log.emit(
                "worker_crash",
                worker=worker.number,
                pid=worker.process.pid,
                exitcode=worker.process.exitcode,
            )
            self._retire(
                worker,
                CRASH,
                f"worker {worker.number} died (exit {worker.process.exitcode})",
            )

    def _shutdown(self, force: bool) -> None:
        """Stop all workers; ``force`` terminates without draining.

        The forced path serves Ctrl-C: workers are terminated mid-cell.
        The graceful path sends one sentinel per worker and joins them
        within a shared deadline, terminating any that outstay it.
        """
        processes = [worker.process for worker in self.workers.values()]
        if force:
            for process in processes:
                process.terminate()
        else:
            for worker in self.workers.values():
                try:
                    worker.conn.send(None)
                except OSError:  # pragma: no cover - died at the end
                    pass
        deadline = time.monotonic() + (2.0 if force else 5.0)
        for process in processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in processes:
            if process.is_alive():  # pragma: no cover - stuck worker
                process.kill()
                process.join(timeout=1.0)
        for worker in self.workers.values():
            worker.conn.close()
