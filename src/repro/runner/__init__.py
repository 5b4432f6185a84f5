"""Parallel experiment orchestration with caching and telemetry.

The runner turns the repository's full evaluation -- hundreds of
independent (design, vulnerability/configuration) cells -- into a
shardable job graph:

* :mod:`repro.runner.registry` -- named experiments enumerating their
  cells as picklable :class:`Unit` coordinates;
* :mod:`repro.runner.scheduler` -- the :class:`Executor` seam
  (``run(cells) -> outcomes``), the one cell-execution function
  :func:`execute` every backend runs cells through, and two backends:
  the multiprocessing pool with retries and crash recovery, and the
  in-process path, whose one-cell ``submit`` :mod:`repro.serve` runs
  its cells through;
* :mod:`repro.runner.cache` -- a content-addressed result cache keyed on
  (experiment, params, seed, code version);
* :mod:`repro.runner.distributed` -- the lease-based multi-host
  :class:`WorkStealingExecutor` and the ``python -m repro worker`` loop,
  coordinating through atomic lease files in the shared cache directory;
* :mod:`repro.runner.policy` -- what both multi-process backends decide
  alike: the failure policy (retry budget, backoff, attempt records,
  quarantine), the chaos config over one fault-mode vocabulary, and the
  run counters;
* :mod:`repro.runner.progress` -- live console progress plus a JSONL run
  log;
* :mod:`repro.runner.results` -- byte-exact reassembly of the serial
  path's ``results/`` artifacts.

Entry points: :func:`run_all` (the API behind
``python -m repro run-all``) and the registry for defining new
experiments.
"""

from .api import default_jobs, run_all
from .cache import (
    DEFAULT_CACHE_DIR,
    CacheStats,
    ResultCache,
    code_fingerprint,
    unit_cache_key,
)
from .experiments import DEFAULT_OPTIONS
from .progress import (
    ProgressPrinter,
    RunLog,
    RunReport,
    completed_idents,
    replay_run_log,
)
from .registry import (
    REGISTRY,
    Experiment,
    Unit,
    all_experiments,
    ensure_default_experiments,
    expand_units,
    get_experiment,
    matches_filter,
    register,
    stable_seed,
)
from .distributed import (
    Board,
    Lease,
    WorkStealingExecutor,
    WorkerLoop,
    worker_loop,
)
from .policy import (
    BACKEND_FAULT_MODES,
    FAULT_MODES,
    JITTER_FRACTION,
    ChaosConfig,
    FailurePolicy,
    RunCounters,
    backoff_delay,
)
from .results import ARTIFACT_SOURCES, write_artifacts
from .scheduler import (
    Executor,
    InProcessExecutor,
    IntegrityError,
    ResultEnvelope,
    Scheduler,
    TaskOutcome,
    execute,
)

__all__ = [
    "ARTIFACT_SOURCES",
    "BACKEND_FAULT_MODES",
    "Board",
    "CacheStats",
    "ChaosConfig",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_OPTIONS",
    "Executor",
    "Experiment",
    "FAULT_MODES",
    "FailurePolicy",
    "InProcessExecutor",
    "IntegrityError",
    "JITTER_FRACTION",
    "Lease",
    "ProgressPrinter",
    "REGISTRY",
    "ResultCache",
    "ResultEnvelope",
    "RunCounters",
    "RunLog",
    "RunReport",
    "Scheduler",
    "TaskOutcome",
    "Unit",
    "WorkStealingExecutor",
    "WorkerLoop",
    "all_experiments",
    "backoff_delay",
    "code_fingerprint",
    "completed_idents",
    "default_jobs",
    "ensure_default_experiments",
    "execute",
    "expand_units",
    "get_experiment",
    "matches_filter",
    "register",
    "replay_run_log",
    "run_all",
    "stable_seed",
    "unit_cache_key",
    "worker_loop",
    "write_artifacts",
]
