"""Job specs, validation, content hashing, and the async job manager.

A *job* is one experiment spec submitted over HTTP: an experiment name
(validated against the runner registry), optional option overrides
(validated against the options that experiment declares), optional cell
filters, a priority, and a client identity.  The manager turns it into runner
cells, resolves what it can from the content-addressed result cache,
runs the rest one at a time on its cell thread, and seals the assembled
artifact into the result store.

The spec's **content hash** is the SHA-256 of its canonical identity --
experiment, every option it resolves to (so an override equal to its
default, or the ``trials`` shorthand for an option, changes nothing),
filters, and the code fingerprint (the
same fingerprint the cell cache keys on, so stale results die with the
code that produced them).  The hash is the dedup key at every layer:

* a finished document in the :class:`~repro.serve.store.ResultStore`
  answers the submission instantly, byte-identically, without a job;
* an identical spec already queued or running *attaches*: the second
  submission gets the first job's id and waits on the same result --
  two concurrent identical submits cost exactly one simulation;
* only a genuinely novel spec enqueues work.

Each job appends its lifecycle to a JSONL telemetry log (the runner's
``unit_done`` schema, written by :class:`~repro.runner.progress.RunLog`);
the status endpoint streams per-cell progress by re-reading that file
through the torn-tail-tolerant :func:`repro.sim.read_jsonl`, so a poll
racing a write still sees every whole event.
"""

from __future__ import annotations

import asyncio
import dataclasses
import enum
import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.runner.cache import ResultCache, code_fingerprint
from repro.runner.progress import RunLog
from repro.runner.registry import (
    COUNT,
    REGISTRY,
    Unit,
    ensure_default_experiments,
    get_experiment,
    matches_filter,
    resolve_options,
)
from repro.runner.scheduler import InProcessExecutor, TaskOutcome
from repro.sim.kernel import KernelCounts

from .http import HttpError
from .metrics import ServiceMetrics
from .store import ResultStore

DESIGN_NAMES = ("SA", "SP", "RF")

#: Top-level spec fields; anything else is a 400 (catches typos early).
SPEC_FIELDS = frozenset(
    {"experiment", "design", "workload", "trials", "options", "filters",
     "priority", "client"}
)

JOB_STATES = ("queued", "running", "done", "failed")

#: Crash-safe record of admitted-but-unfinished work, inside the state
#: dir.  Every queued job appends a ``job_queued`` record (the full spec,
#: enough to resubmit it); reaching a terminal state appends ``job_done``.
#: A service killed mid-run therefore leaves orphaned ``job_queued``
#: records, and :meth:`JobManager.resume_pending` re-admits them on the
#: next start -- a SIGKILL defers queued work, it never loses it.
JOBS_JOURNAL = "jobs-journal.jsonl"

#: Jobs the priority queue admits before a novel spec gets a 503.
MAX_QUEUED_JOBS = 256


def to_jsonable(value: Any) -> Any:
    """Recursively convert a cell/artifact value into plain JSON types.

    Dataclasses become field dicts, enums their values, tuples/sets
    lists; anything else unknown falls back to ``str`` -- result
    documents must be serializable without surprises, and ``str`` is a
    stable, deterministic rendering for domain objects.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return to_jsonable(value.value)
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value) if not isinstance(value, (set, frozenset)) else sorted(value, key=str)
        return [to_jsonable(item) for item in items]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@dataclass(frozen=True)
class JobSpec:
    """One validated submission (see :func:`parse_spec`)."""

    experiment: str
    #: Every option the experiment declares, resolved, sorted for a
    #: stable identity.
    options: Tuple[Tuple[str, Any], ...] = ()
    filters: Tuple[str, ...] = ()
    priority: int = 0
    client: str = "anonymous"

    @property
    def options_dict(self) -> Dict[str, Any]:
        return dict(self.options)

    def content_hash(self, code_version: Optional[str] = None) -> str:
        """The spec's canonical identity digest (dedup + store key)."""
        identity = json.dumps(
            {
                "experiment": self.experiment,
                "options": self.options_dict,
                "filters": list(self.filters),
                "code_version": (
                    code_version if code_version is not None
                    else code_fingerprint()
                ),
            },
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(identity.encode()).hexdigest()


def _bad_spec(detail: str) -> HttpError:
    return HttpError(400, "bad-spec", detail)


def parse_spec(payload: Any, default_client: str = "anonymous") -> JobSpec:
    """Validate a raw JSON body into a :class:`JobSpec` or raise a 400.

    ``design``, ``workload``, and ``trials`` are conveniences that lower
    onto the runner's native vocabulary: design/workload become unit
    ident globs, trials becomes the experiment's trial-count option.
    Options are checked by :func:`~repro.runner.registry.resolve_options`
    against the spec's experiment; its message is the 400's detail.  The
    spec keeps the options they resolve to, so every spelling of the same
    cells shares one content hash.
    """
    if not isinstance(payload, dict):
        raise _bad_spec("spec must be a JSON object")
    unknown = sorted(set(payload) - SPEC_FIELDS)
    if unknown:
        raise _bad_spec(
            f"unknown spec fields: {', '.join(unknown)}"
            f" (accepted: {', '.join(sorted(SPEC_FIELDS))})"
        )

    ensure_default_experiments()
    experiment = payload.get("experiment")
    if not isinstance(experiment, str) or not experiment:
        raise _bad_spec("'experiment' is required and must be a string")
    if experiment not in REGISTRY:
        raise _bad_spec(
            f"unknown experiment {experiment!r};"
            f" known: {', '.join(sorted(REGISTRY))}"
        )

    options = payload.get("options", {})
    if not isinstance(options, dict):
        raise _bad_spec("'options' must be an object")
    try:
        options = resolve_options(options, experiment)
    except ValueError as error:
        raise _bad_spec(str(error)) from None

    trials = payload.get("trials")
    if trials is not None:
        if not COUNT.admits(trials):
            raise _bad_spec("'trials' must be a positive integer")
        option_key = REGISTRY[experiment].trials_option
        if option_key is None:
            supported = sorted(n for n, e in REGISTRY.items() if e.trials_option)
            raise _bad_spec(
                f"experiment {experiment!r} has no trials knob"
                f" (supported: {', '.join(supported)})"
            )
        options[option_key] = trials

    filters: List[str] = []
    design = payload.get("design")
    if design is not None:
        if design not in DESIGN_NAMES:
            raise _bad_spec(
                f"'design' must be one of {', '.join(DESIGN_NAMES)}"
            )
        filters.append(f"{experiment}/{design}/*")
    workload = payload.get("workload")
    if workload is not None:
        if not isinstance(workload, str) or not workload:
            raise _bad_spec("'workload' must be a non-empty string")
        filters.append(f"{experiment}/*{workload}*")
    raw_filters = payload.get("filters", [])
    if not isinstance(raw_filters, list) or not all(
        isinstance(item, str) and item for item in raw_filters
    ):
        raise _bad_spec("'filters' must be a list of non-empty strings")
    filters.extend(raw_filters)

    priority = payload.get("priority", 0)
    if (
        not isinstance(priority, int)
        or isinstance(priority, bool)
        or not 0 <= priority <= 9
    ):
        raise _bad_spec("'priority' must be an integer in [0, 9]")

    client = payload.get("client", default_client)
    if not isinstance(client, str) or not client:
        raise _bad_spec("'client' must be a non-empty string")

    return JobSpec(
        experiment=experiment,
        options=tuple(sorted(options.items())),
        filters=tuple(filters),
        priority=priority,
        client=client,
    )


def result_document(
    spec: JobSpec,
    content_hash: str,
    code_version: str,
    values: List[Any],
    selected: int,
    full: int,
    assembled: Any,
) -> Dict[str, Any]:
    """The JSON document a finished job persists and serves.

    Deliberately timestamp-free: identical specs against identical code
    must produce byte-identical documents, run now or next year.
    """
    complete = selected == full
    certified = (
        assembled.get("certified")
        if complete and isinstance(assembled, Mapping)
        else None
    )
    return {
        "experiment": spec.experiment,
        "content_hash": content_hash,
        "code_version": code_version,
        "options": to_jsonable(spec.options_dict),
        "filters": list(spec.filters),
        "cells": {"selected": selected, "full": full, "complete": complete},
        # Static/dynamic cross-certification carried by the assembled
        # result (None when the experiment makes no such claim).
        "certified": certified,
        "result": to_jsonable(assembled if complete else values),
    }


def canonical_payload(document: Mapping[str, Any]) -> bytes:
    """Canonical bytes of a result document (what the SHA-256 seals)."""
    return (
        json.dumps(document, sort_keys=True, default=str) + "\n"
    ).encode("utf-8")


@dataclass
class Job:
    """One accepted submission and its live state."""

    id: str
    spec: JobSpec
    content_hash: str
    units: List[Unit]
    #: Cell count of the unfiltered experiment (completeness check).
    full_units: int
    log_path: Optional[Path]
    state: str = "queued"
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    cells_done: int = 0
    cells_cached: int = 0
    cells_failed: int = 0
    #: Identical submissions attached to this job while it was in flight.
    attached: int = 0
    #: The submission was answered straight from the result store.
    from_store: bool = False
    result_sha256: Optional[str] = None
    error: Optional[str] = None
    #: Run-kernel engagement summed over the cells this job ran fresh.
    kernel: KernelCounts = field(default_factory=KernelCounts)
    done_event: asyncio.Event = field(default_factory=asyncio.Event)

    def status_dict(self, progress_events: int = 25) -> Dict[str, Any]:
        """The ``GET /v1/jobs/{id}`` document.

        Per-cell progress comes from re-reading the job's JSONL
        telemetry via the torn-tail-tolerant reader, so a poll racing
        the writer still parses cleanly.
        """
        cells: Dict[str, Any] = {
            "total": len(self.units),
            "done": self.cells_done,
            "cached": self.cells_cached,
            "failed": self.cells_failed,
        }
        recent: List[Dict[str, Any]] = []
        if self.log_path is not None and self.log_path.is_file():
            from repro.sim import read_jsonl

            unit_events = [
                event for event in read_jsonl(self.log_path)
                if event.get("event") == "unit_done"
            ]
            recent = [
                {
                    "cell": f"{event.get('experiment')}/{event.get('key')}",
                    "status": event.get("status"),
                    "cached": bool(event.get("cached")),
                    "elapsed": event.get("elapsed"),
                }
                for event in unit_events[-progress_events:]
            ]
        payload: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "experiment": self.spec.experiment,
            "content_hash": self.content_hash,
            "priority": self.spec.priority,
            "client": self.spec.client,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "cells": cells,
            "attached": self.attached,
            "from_store": self.from_store,
            "kernel": dataclasses.asdict(self.kernel),
            "progress": recent,
        }
        if self.result_sha256 is not None:
            payload["result_sha256"] = self.result_sha256
            payload["result_url"] = f"/v1/results/{self.content_hash}"
        if self.error is not None:
            payload["error"] = self.error
        return payload


class JobManager:
    """Priority queue + dispatchers + the one cell thread.

    ``submit`` is called on the event loop (single-threaded, so the
    dedup map needs no lock).  Every fresh cell runs through
    :meth:`~repro.runner.scheduler.InProcessExecutor.submit` on one
    thread the manager owns, one cell at a time: the cells are CPU-bound
    Python, so a second thread would only take turns with the first
    under the GIL.  The event loop stays free to answer requests and to
    resolve cache hits meanwhile.
    """

    def __init__(
        self,
        store: ResultStore,
        metrics: ServiceMetrics,
        cache: Optional[ResultCache] = None,
        state_dir: Union[Path, str, None] = None,
        dispatchers: int = 2,
    ) -> None:
        if not COUNT.admits(dispatchers):
            raise ValueError(f"dispatchers must be {COUNT.noun}")
        # The executor seals each envelope in this process: nothing
        # re-hashes it before the cell cache, whose reader checks every
        # digest.
        self._executor = InProcessExecutor()
        self._cell_thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-cell"
        )
        self.store = store
        self.metrics = metrics
        self.cache = cache
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.journal_path = (
            self.state_dir / JOBS_JOURNAL
            if self.state_dir is not None
            else None
        )
        self.dispatchers = dispatchers
        self.code_version = (
            cache.code_version if cache is not None else code_fingerprint()
        )
        self.jobs: Dict[str, Job] = {}
        #: content hash -> queued/running job (the dedup map).
        self.inflight: Dict[str, Job] = {}
        self._queue: "asyncio.PriorityQueue[Tuple[int, int, str]]" = (
            asyncio.PriorityQueue()
        )
        self._sequence = 0
        self._tasks: List[asyncio.Task] = []
        #: Run-kernel engagement summed over every job's fresh cells.
        self.kernel = KernelCounts()
        metrics.register_gauge("queue_depth", self.queue_depth)
        metrics.register_gauge("jobs_inflight", lambda: len(self.inflight))
        metrics.register_gauge(
            "inflight_dedup_attached",
            lambda: sum(job.attached for job in self.inflight.values()),
        )
        for count in dataclasses.fields(KernelCounts):
            metrics.register_gauge(
                f"kernel_{count.name}",
                lambda name=count.name: getattr(self.kernel, name),
            )

    def queue_depth(self) -> int:
        """Jobs admitted but not yet picked up by a dispatcher."""
        return self._queue.qsize()

    # -- jobs journal --------------------------------------------------------------

    def _journal(self, event: str, **fields: Any) -> None:
        if self.journal_path is None:
            return
        self.journal_path.parent.mkdir(parents=True, exist_ok=True)
        with self.journal_path.open("a", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"event": event, **fields}, sort_keys=True) + "\n"
            )

    @staticmethod
    def _journal_spec(spec: JobSpec) -> Dict[str, Any]:
        return {
            "experiment": spec.experiment,
            "options": to_jsonable(spec.options_dict),
            "filters": list(spec.filters),
            "priority": spec.priority,
            "client": spec.client,
        }

    def resume_pending(self) -> int:
        """Re-admit jobs journaled as queued but never finished.

        Reads the jobs journal through the torn-tail-tolerant parser (a
        kill mid-append leaves a ragged last line), resubmits every
        ``job_queued`` record with no matching ``job_done``, and compacts
        the journal down to the survivors.  Each journaled spec is
        validated again by :func:`parse_spec`, exactly like a new
        submission, so specs that no longer admit (experiment
        unregistered, options vocabulary moved on) are retired rather
        than retried forever; specs whose results landed in the store
        before the kill are acknowledged as done.  Returns the number of
        jobs put back on the queue.
        """
        if self.journal_path is None or not self.journal_path.is_file():
            return 0
        from repro.sim import read_jsonl

        pending: Dict[str, Dict[str, Any]] = {}
        for event in read_jsonl(self.journal_path):
            if event.get("event") == "job_queued":
                raw = event.get("spec")
                if isinstance(raw, dict):
                    pending[str(event.get("content_hash", ""))] = raw
            elif event.get("event") == "job_done":
                pending.pop(str(event.get("content_hash", "")), None)

        resumed = 0
        survivors: List[str] = []
        for raw in pending.values():
            try:
                spec = parse_spec(raw)
                job, disposition = self.submit(spec)
            except (HttpError, KeyError, TypeError, ValueError):
                continue  # spec no longer admits; the compaction drops it
            if disposition == "queued":
                resumed += 1
                self.metrics.jobs_resumed += 1
                survivors.append(
                    json.dumps(
                        {
                            "event": "job_queued",
                            "content_hash": job.content_hash,
                            "spec": self._journal_spec(spec),
                        },
                        sort_keys=True,
                    )
                )
            # "cached": the result reached the store before the kill --
            # already answered, nothing survives.  "deduped": attached to
            # a job resubmitted earlier in this loop, which is the
            # surviving record.

        tmp = self.journal_path.with_name(self.journal_path.name + ".tmp")
        tmp.write_text(
            "".join(line + "\n" for line in survivors), encoding="utf-8"
        )
        tmp.replace(self.journal_path)
        return resumed

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> None:
        for index in range(self.dispatchers):
            self._tasks.append(
                asyncio.create_task(
                    self._dispatch(), name=f"repro-serve-dispatch-{index}"
                )
            )

    async def stop(self) -> None:
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks.clear()
        # Cells not yet started are dropped.  A cell already running
        # cannot be interrupted: wait for it off the event loop, so no
        # cell of this manager outlives stop().
        await asyncio.to_thread(self._cell_thread.shutdown, cancel_futures=True)

    # -- submission ----------------------------------------------------------------

    def _expand(self, spec: JobSpec) -> Tuple[List[Unit], int]:
        experiment = get_experiment(spec.experiment)
        all_units = experiment.units(resolve_options(spec.options_dict, spec.experiment))
        if spec.filters:
            selected = [
                unit for unit in all_units
                if matches_filter(unit, spec.filters)
            ]
        else:
            selected = list(all_units)
        return selected, len(all_units)

    def submit(self, spec: JobSpec) -> Tuple[Job, str]:
        """Admit one spec; returns ``(job, disposition)``.

        Disposition is ``"cached"`` (answered from the result store),
        ``"deduped"`` (attached to an identical in-flight job), or
        ``"queued"`` (new work).
        """
        self.metrics.jobs_submitted += 1
        content_hash = spec.content_hash(self.code_version)

        inflight = self.inflight.get(content_hash)
        if inflight is not None:
            inflight.attached += 1
            self.metrics.jobs_deduped += 1
            return inflight, "deduped"

        units, full_units = self._expand(spec)

        stored = self.store.get(content_hash)
        if stored is not None:
            _payload, digest = stored
            job = self._new_job(spec, content_hash, units, full_units)
            job.state = "done"
            job.from_store = True
            job.result_sha256 = digest
            job.finished = job.created
            job.done_event.set()
            self.metrics.jobs_store_hits += 1
            return job, "cached"

        if not units:
            raise HttpError(
                400, "bad-spec",
                "spec selects no cells (check design/workload/filters)",
            )
        if self._queue.qsize() >= MAX_QUEUED_JOBS:
            raise HttpError(
                503, "queue-full",
                f"job queue is at its {MAX_QUEUED_JOBS}-job limit;"
                " retry later",
                headers={"Retry-After": "5"},
            )

        job = self._new_job(spec, content_hash, units, full_units)
        self.inflight[content_hash] = job
        # PriorityQueue pops the smallest tuple: higher priority first,
        # FIFO (by admission sequence) within a priority class.
        self._queue.put_nowait((-spec.priority, self._sequence, job.id))
        self._journal(
            "job_queued",
            content_hash=content_hash,
            spec=self._journal_spec(spec),
        )
        return job, "queued"

    def _new_job(
        self,
        spec: JobSpec,
        content_hash: str,
        units: List[Unit],
        full_units: int,
    ) -> Job:
        self._sequence += 1
        job_id = f"j{self._sequence:06d}"
        log_path = (
            self.state_dir / "jobs" / f"{job_id}.jsonl"
            if self.state_dir is not None
            else None
        )
        job = Job(
            id=job_id,
            spec=spec,
            content_hash=content_hash,
            units=units,
            full_units=full_units,
            log_path=log_path,
        )
        self.jobs[job_id] = job
        return job

    # -- execution -----------------------------------------------------------------

    async def _dispatch(self) -> None:
        while True:
            _neg_priority, _sequence, job_id = await self._queue.get()
            job = self.jobs[job_id]
            try:
                await self._run_job(job)
            except asyncio.CancelledError:
                job.state = "failed"
                job.error = "service shut down while the job was running"
                job.done_event.set()
                self.inflight.pop(job.content_hash, None)
                raise
            except Exception as error:  # defensive: a job never kills the loop
                job.state = "failed"
                job.error = f"internal job failure: {error!r}"
                job.finished = time.time()
                job.done_event.set()
                self.inflight.pop(job.content_hash, None)
                self.metrics.jobs_failed += 1
                self._journal(
                    "job_done", content_hash=job.content_hash, state="failed"
                )
            finally:
                self._queue.task_done()

    async def _run_cell(
        self, job: Job, log: RunLog, unit: Unit
    ) -> TaskOutcome:
        if self.cache is not None:
            hit, value = self.cache.get(unit)
            if hit:
                job.cells_cached += 1
                job.cells_done += 1
                self.metrics.cells_cached += 1
                outcome = TaskOutcome(unit=unit, value=value, cached=True)
                log.emit("unit_done", **outcome.done_fields())
                return outcome
        outcome = await asyncio.get_running_loop().run_in_executor(
            self._cell_thread, self._executor.submit, unit
        )
        if outcome.failed:
            job.cells_failed += 1
            self.metrics.cells_failed += 1
        else:
            job.cells_done += 1
            self.metrics.cells_run += 1
            job.kernel.add(outcome.kernel)
            self.kernel.add(outcome.kernel)
            if self.cache is not None:
                self.cache.put(outcome)
        log.emit("unit_done", **outcome.done_fields())
        return outcome

    async def _run_job(self, job: Job) -> None:
        job.state = "running"
        job.started = time.time()
        log = RunLog(job.log_path)
        log.emit(
            "job_start",
            job=job.id,
            experiment=job.spec.experiment,
            content_hash=job.content_hash,
            units=len(job.units),
            client=job.spec.client,
            priority=job.spec.priority,
        )
        try:
            outcomes = await asyncio.gather(
                *(self._run_cell(job, log, unit) for unit in job.units)
            )
            failed = [outcome for outcome in outcomes if outcome.failed]
            if failed:
                first = failed[0]
                job.state = "failed"
                job.error = (
                    f"{len(failed)}/{len(outcomes)} cells failed; first:"
                    f" {first.unit.ident}: "
                    + (first.error or "unknown error").splitlines()[-1]
                )
                self.metrics.jobs_failed += 1
                log.emit(
                    "job_end", job=job.id, status="failed", error=job.error
                )
                # A deterministic failure is terminal: journal it done so
                # a restart does not replay it forever.  (Cancellation
                # mid-run deliberately journals nothing -- the orphaned
                # job_queued record is what resume_pending picks up.)
                self._journal(
                    "job_done", content_hash=job.content_hash, state="failed"
                )
                return
            values = [outcome.value for outcome in outcomes]
            experiment = get_experiment(job.spec.experiment)
            assembled: Any = None
            if len(values) == job.full_units:
                options = resolve_options(job.spec.options_dict, job.spec.experiment)
                assembled = experiment.assemble(values, options)
            document = result_document(
                spec=job.spec,
                content_hash=job.content_hash,
                code_version=self.code_version,
                values=values,
                selected=len(values),
                full=job.full_units,
                assembled=assembled,
            )
            payload = canonical_payload(document)
            job.result_sha256 = self.store.put(job.content_hash, payload)
            job.state = "done"
            self.metrics.jobs_completed += 1
            if document.get("certified") is True:
                self.metrics.results_certified += 1
            elif document.get("certified") is False:
                self.metrics.results_uncertified += 1
            log.emit(
                "job_end",
                job=job.id,
                status="done",
                result_sha256=job.result_sha256,
                cached_cells=job.cells_cached,
            )
            self._journal(
                "job_done", content_hash=job.content_hash, state="done"
            )
        finally:
            job.finished = time.time()
            job.done_event.set()
            self.inflight.pop(job.content_hash, None)
            log.close()
