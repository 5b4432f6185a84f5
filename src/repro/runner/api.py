"""``run_all``: the one-call orchestration entry point.

Expands every registered experiment into cells, resolves what it can from
the result cache, shards the rest across worker processes, stores fresh
results back, reassembles the serial path's artifacts, and returns a
:class:`~repro.runner.progress.RunReport`.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.options import COUNT, NON_NEGATIVE, SECONDS

from .cache import DEFAULT_CACHE_DIR, ResultCache
from .distributed import WorkStealingExecutor
from .policy import ChaosConfig
from .progress import (
    ProgressPrinter,
    RunLog,
    RunReport,
    completed_idents,
    replay_run_log,
)
from .registry import all_experiments, expand_units, resolve_options
from .scheduler import Executor, InProcessExecutor, Scheduler, TaskOutcome
from .results import write_artifacts


def default_jobs() -> int:
    return max(1, os.cpu_count() or 1)


def run_all(
    jobs: Optional[int] = None,
    use_cache: bool = True,
    filters: Optional[Iterable[str]] = None,
    results_dir: Union[Path, str] = "results",
    cache_dir: Union[Path, str, None] = None,
    log_path: Union[Path, str, None] = None,
    options: Optional[Mapping[str, Any]] = None,
    progress: bool = True,
    max_retries: int = 2,
    backoff: float = 0.05,
    task_timeout: Optional[float] = None,
    chaos: Optional[ChaosConfig] = None,
    executor: str = "pool",
    workers: int = 0,
    executor_options: Optional[Mapping[str, Any]] = None,
) -> RunReport:
    """Run every (filtered) experiment cell and merge the artifacts.

    ``log_path`` defaults to ``<results_dir>/run_log.jsonl``; pass an
    explicit path to redirect it.  ``options`` overrides declared
    experiment options (e.g. smaller trial counts for smoke tests).  A
    bad option, ``jobs``, ``max_retries``, ``task_timeout``, ``executor``
    or ``workers``, a ``task_timeout`` under work stealing, or a ``chaos``
    mode the chosen backend does not implement (the serial ``jobs=1``
    path without a ``task_timeout`` implements none) raises
    :class:`ValueError` before the run log, the cache or any cell is read.

    ``task_timeout`` arms the pool's per-cell wall-clock watchdog;
    ``chaos`` injects deterministic worker faults (testing only; see
    :mod:`repro.faults`).  If the previous run at this ``results_dir`` was
    interrupted, its run log is replayed for a ``run_resume`` event and
    the cache transparently resumes the work; an interrupted or
    partially-failed run leaves a ``failed_cells.json`` manifest beside
    the artifacts (now with the full per-attempt history of each failed
    cell).

    ``executor`` picks the backend: ``"pool"`` (the default per-host
    multiprocessing scheduler; ``--jobs 1`` degrades to in-process,
    unless a ``task_timeout`` needs a worker to kill) or
    ``"work-stealing"`` -- the lease-based multi-host executor of
    :mod:`repro.runner.distributed`, which coordinates through the shared
    cache directory and accepts any ``python -m repro worker`` process on
    any host.  ``workers`` spawns that many local stealing workers, and
    ``executor_options`` forwards protocol knobs (``lease_ttl``,
    ``heartbeat_interval``, ``fallback_after``, ...).  Both backends
    retry and quarantine by one
    :class:`~repro.runner.policy.FailurePolicy` and report the same
    :class:`~repro.runner.policy.RunCounters`.
    """
    started = time.monotonic()
    merged_options = resolve_options(options or {})
    if not NON_NEGATIVE.admits(max_retries):
        raise ValueError(f"max_retries must be {NON_NEGATIVE.noun}")
    if task_timeout is not None and not SECONDS.admits(task_timeout):
        raise ValueError(f"task_timeout must be {SECONDS.noun}")
    if executor not in ("pool", "work-stealing"):
        raise ValueError(
            f"unknown executor {executor!r}; known: pool, work-stealing"
        )
    if not NON_NEGATIVE.admits(workers):
        raise ValueError(f"workers must be {NON_NEGATIVE.noun}")
    if jobs is None:
        jobs = default_jobs()
    elif not COUNT.admits(jobs):
        raise ValueError(f"jobs must be {COUNT.noun}")
    # A watchdog needs a process to kill, so a timeout puts even one job
    # on the pool.
    backend = (
        "work-stealing" if executor == "work-stealing"
        else ("pool" if jobs > 1 or task_timeout is not None else "serial")
    )
    if task_timeout is not None and backend == "work-stealing":
        raise ValueError(
            "task_timeout arms the pool's watchdog; work stealing has none"
        )
    if chaos is not None:
        chaos.check_backend(backend)
    filters = list(filters) if filters else None

    units = expand_units(options or {}, filters)
    report = RunReport(units_total=len(units), jobs=jobs, executor=backend)

    log_file = Path(
        log_path if log_path is not None
        else Path(results_dir) / "run_log.jsonl"
    )
    # Replay the previous log *before* RunLog truncates it: a log whose
    # run never ended cleanly (no run_end, or run_end with interrupted
    # set, or a torn tail from a hard kill) marks an interrupted run this
    # one resumes (via the cache).
    prior_events = replay_run_log(log_file)
    prior_done: List[str] = []
    if prior_events:
        ended_clean = any(
            event.get("event") == "run_end" and not event.get("interrupted")
            for event in prior_events
        )
        if not ended_clean:
            prior_done = completed_idents(prior_events)

    log = RunLog(log_file)
    printer = ProgressPrinter(total=len(units), enabled=progress)

    cache = (
        ResultCache(cache_dir if cache_dir is not None else DEFAULT_CACHE_DIR)
        if use_cache
        else None
    )
    log.emit(
        "run_start",
        jobs=jobs,
        units=len(units),
        filters=filters,
        cache=bool(cache),
        code_version=cache.code_version if cache else None,
    )
    if prior_done:
        resumable = {unit.ident for unit in units}
        report.resumed_cells = sum(
            1 for ident in prior_done if ident in resumable
        )
        log.emit(
            "run_resume",
            prior_completed=len(prior_done),
            resumed=report.resumed_cells,
        )
        printer.note(
            f"resuming: a previous interrupted run completed"
            f" {report.resumed_cells}/{len(units)} of these cells"
        )

    # Resolve cache hits in-process; only misses are scheduled.
    outcomes: Dict[int, TaskOutcome] = {}
    to_run: List[Any] = []
    for task_id, unit in enumerate(units):
        if cache is not None:
            hit, value = cache.get(unit)
            if hit:
                outcome = outcomes[task_id] = TaskOutcome(
                    unit=unit, value=value, cached=True
                )
                log.emit("unit_done", **outcome.done_fields())
                continue
        to_run.append((task_id, unit))

    printer.cache_hits = len(outcomes)
    printer.base_done = len(outcomes)
    if outcomes:
        printer.note(
            f"{len(outcomes)}/{len(units)} cells from cache,"
            f" {len(to_run)} to run"
        )

    fresh: Dict[int, TaskOutcome] = {}
    if to_run:
        runner: Executor
        if backend == "work-stealing":
            runner = WorkStealingExecutor(
                cache_dir=(
                    cache_dir if cache_dir is not None else DEFAULT_CACHE_DIR
                ),
                local_workers=workers,
                max_retries=max_retries,
                backoff=backoff,
                log=log,
                progress=printer,
                chaos=chaos,
                **dict(executor_options or {}),
            )
        elif backend == "pool":
            runner = Scheduler(
                jobs=jobs,
                max_retries=max_retries,
                backoff=backoff,
                log=log,
                progress=printer,
                task_timeout=task_timeout,
                chaos=chaos,
            )
        else:
            runner = InProcessExecutor(log)
        try:
            fresh = runner.run(to_run)
        finally:
            runner.close()
        report.absorb(runner.counters)

    if cache is not None:
        for outcome in fresh.values():
            if not outcome.failed:
                cache.put(outcome)
    outcomes.update(fresh)

    report.cache_hits = cache.stats.hits if cache else 0
    report.cache_misses = cache.stats.misses if cache else 0
    report.cache_corrupt = cache.stats.corrupt if cache else 0
    report.completed = sum(
        1 for outcome in outcomes.values() if not outcome.failed
    )
    report.failed = [
        outcomes[task_id].unit.ident
        for task_id in sorted(outcomes)
        if outcomes[task_id].failed
    ]

    # Group completed values per experiment, in unit enumeration order.
    grouped: Dict[str, List[Any]] = {}
    incomplete: set = set()
    for task_id, unit in enumerate(units):
        outcome = outcomes.get(task_id)
        if outcome is None or outcome.failed:
            incomplete.add(unit.experiment)
            continue
        grouped.setdefault(unit.experiment, []).append(outcome.value)

    assembled: Dict[str, Any] = {}
    for experiment in all_experiments():
        name = experiment.name
        if name in incomplete or name not in grouped:
            continue
        # A filtered run may hold only a subset of an experiment's cells;
        # partial sets cannot be reassembled into a faithful artifact.
        if len(grouped[name]) != len(experiment.units(merged_options)):
            continue
        assembled[name] = experiment.assemble(grouped[name], merged_options)

    report.artifacts = write_artifacts(assembled, results_dir, log)

    # Quarantine manifest: which cells failed (with errors), which never
    # ran, and whether the run was cut short -- machine-readable, so CI
    # and resume tooling need not parse the log.
    manifest_path = Path(results_dir) / "failed_cells.json"
    if report.failed or report.interrupted:
        missing = [
            unit.ident
            for task_id, unit in enumerate(units)
            if task_id not in outcomes
        ]
        manifest = {
            "interrupted": report.interrupted,
            "failed": [
                {
                    "ident": outcomes[task_id].unit.ident,
                    "attempts": outcomes[task_id].attempts,
                    "error": (
                        outcomes[task_id].error.splitlines()[-1]
                        if outcomes[task_id].error
                        else None
                    ),
                    # Full per-attempt evidence: worker id, fault or
                    # exception, and the backoff each retry waited out.
                    "history": outcomes[task_id].history,
                }
                for task_id in sorted(outcomes)
                if outcomes[task_id].failed
            ],
            "missing": missing,
        }
        manifest_path.parent.mkdir(parents=True, exist_ok=True)
        manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        log.emit("manifest", path=str(manifest_path))
    elif manifest_path.exists():
        # A fully successful run clears the previous quarantine record.
        manifest_path.unlink()

    # This run's run-kernel engagement: every backend brings each fresh
    # cell's counts home on its outcome.
    for outcome in fresh.values():
        report.kernel.add(outcome.kernel)

    report.elapsed = time.monotonic() - started
    log.emit("run_end", **report.summary_fields())
    log.close()
    printer.update(
        done=len(outcomes) - printer.base_done,
        retries=report.retries,
        workers=0,
        force=True,
    )
    if report.artifacts:
        printer.note(f"wrote {len(report.artifacts)} artifacts")
    if report.cache_corrupt:
        printer.note(
            f"cache: {report.cache_corrupt} corrupt entries treated as"
            " misses and recomputed"
        )
    if report.failed:
        printer.note(f"FAILED cells: {', '.join(report.failed)}")
    if report.interrupted:
        printer.note(
            f"interrupted: {report.completed}/{report.units_total} cells"
            " done; rerun to resume from the cache"
        )
    return report
