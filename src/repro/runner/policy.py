"""What every executor backend decides alike about failing cells.

The multiprocessing pool (:mod:`repro.runner.scheduler`) and the
lease-based work stealing (:mod:`repro.runner.distributed`) run cells
by different protocols but keep the same promises, and this module is
the one place those promises are decided:

* :class:`FailurePolicy` -- the retry budget, the backoff before each
  retry, the attempt record a failure leaves behind (the history that
  ``failed_cells.json`` carries), and the quarantine rule;
* :class:`ChaosConfig` -- deterministic misbehaviour over one fault-mode
  vocabulary, with the modes each backend implements;
* :class:`RunCounters` -- what a backend counts while it runs cells,
  the fields :class:`~repro.runner.progress.RunReport` reports.

Backoff is exponential in the attempt number, capped at
:data:`BACKOFF_CAP`, with jitter drawn from CRC32 of ``(seed, ident,
attempt)`` -- the same process-stable hashing as
:func:`repro.runner.registry.stable_seed` -- so every host computes the
same schedule for a cell, a chaos run replays bit for bit, and distinct
cells failing together fan out instead of thundering back as one herd.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .registry import Unit

#: Fraction of the exponential delay the jitter may add (half-open).
JITTER_FRACTION = 0.5
#: Upper bound, in seconds, of any retry's raw delay.
BACKOFF_CAP = 5.0


def backoff_delay(
    attempt: int,
    base: float = 0.05,
    cap: float = BACKOFF_CAP,
    ident: str = "",
    seed: int = 0,
) -> float:
    """Seconds to wait before retrying ``ident`` after ``attempt`` failures.

    ``attempt`` is 1-based (the delay after the first failure uses
    ``attempt=1``).  The raw delay is ``base * 2**(attempt-1)``, capped at
    ``cap``; deterministic jitter then adds up to ``JITTER_FRACTION`` of
    that, drawn from ``crc32(f"{seed}/{ident}/{attempt}")`` so the
    schedule is a pure function of the cell's identity.
    """
    if attempt < 1:
        raise ValueError("attempt is 1-based and must be >= 1")
    if base < 0 or cap < 0:
        raise ValueError("base and cap must be non-negative")
    raw = min(base * (2 ** (attempt - 1)), cap)
    digest = zlib.crc32(f"{seed}/{ident}/{attempt}".encode())
    jitter = ((digest % 10_000) / 10_000.0) * JITTER_FRACTION
    return raw * (1.0 + jitter)


# -- attempt records ----------------------------------------------------------

#: What became of one attempt, as its record's ``status`` says.
OK = "ok"
#: The cell raised.
ERROR = "error"
#: Its result failed verification (digest, cell id or code fingerprint).
CORRUPT = "corrupt"
#: Its pool worker died mid-cell.
CRASH = "crash"
#: The pool's watchdog killed its worker.
TIMEOUT = "timeout"
#: Its work-stealing lease went stale and was taken back.
RECLAIMED = "reclaimed"
#: The statuses of a failed attempt; each spends one attempt of the budget.
FAILURES: Tuple[str, ...] = (ERROR, CORRUPT, CRASH, TIMEOUT, RECLAIMED)


def failed_attempts(
    records: Sequence[Mapping[str, Any]]
) -> List[Mapping[str, Any]]:
    """The records of ``records`` that are failed attempts."""
    return [record for record in records if record.get("status") in FAILURES]


@dataclass(frozen=True)
class FailurePolicy:
    """When a failed cell runs again, and when it is quarantined instead.

    A cell may take ``max_retries + 1`` attempts.  Each failed attempt
    leaves one record (:meth:`record`); once the failures fill the budget
    the cell is quarantined with those records as its history.  Attempt
    ``n`` is the one that follows ``n - 1`` failures.
    """

    max_retries: int = 2
    #: Raw delay, in seconds, after a first failure; doubles per failure.
    backoff: float = 0.05

    @property
    def budget(self) -> int:
        """Attempts a cell may take."""
        return self.max_retries + 1

    def delay(self, unit: Unit, attempt: int) -> float:
        """Seconds between ``unit``'s failed ``attempt`` and the next one.

        The jitter is keyed on the unit's identity and seed (not on its
        code-versioned cache key), so a cell's schedule is the same under
        every backend and every code version.
        """
        return backoff_delay(
            attempt, base=self.backoff, ident=unit.ident, seed=unit.seed
        )

    def record(
        self,
        unit: Unit,
        attempt: int,
        status: str,
        worker: Any,
        error: Optional[str] = None,
    ) -> Dict[str, Any]:
        """The record of one attempt: the one schema both backends keep.

        A failed attempt with budget left carries the ``backoff`` before
        the next attempt and the wall-clock time (``not_before``) that
        attempt may start; one that exhausts the budget carries 0.
        ``error`` keeps only the last line of a traceback.
        """
        retried = status in FAILURES and attempt < self.budget
        delay = self.delay(unit, attempt) if retried else 0.0
        return {
            "attempt": attempt,
            "worker": worker,
            "status": status,
            "error": error.splitlines()[-1] if error else None,
            "backoff": round(delay, 4),
            "not_before": time.time() + delay,
        }

    def next_attempt(self, records: Sequence[Mapping[str, Any]]) -> int:
        return len(failed_attempts(records)) + 1

    def exhausted(self, records: Sequence[Mapping[str, Any]]) -> bool:
        """The quarantine rule: the failures fill the attempt budget."""
        return len(failed_attempts(records)) >= self.budget

    def retries(self, records: Sequence[Mapping[str, Any]]) -> int:
        """How many of the failures were followed by another attempt."""
        return min(len(failed_attempts(records)), self.max_retries)

    def to_dict(self) -> Dict[str, Any]:
        return {"max_retries": self.max_retries, "backoff": self.backoff}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FailurePolicy":
        return cls(
            max_retries=int(payload.get("max_retries", 2)),
            backoff=float(payload.get("backoff", 0.05)),
        )


# -- chaos --------------------------------------------------------------------

#: Every executor fault mode, each a worker misbehaving on one attempt.
FAULT_MODES: Tuple[str, ...] = (
    # Sleep mid-cell, past the pool's watchdog.
    "hang",
    # Die mid-cell without a word: os._exit in the pool, SIGKILL with
    # the lease in hand under work stealing.
    "crash",
    # Flip a byte of the sealed result payload; the envelope's digest
    # must reject it.
    "corrupt-result",
    # Hold the lease, stop renewing it, then walk away without a result.
    "heartbeat-freeze",
    # Complete the cell a second time under a forced lease; determinism
    # must make the duplicate harmless.
    "duplicate-lease",
    # Claim with an already-expired heartbeat, so the lease is reclaimed
    # while its owner still runs.
    "stale-lease",
    # Tear the worker's own journal tail mid-record.
    "torn-journal",
    # Fail on every attempt (chosen by ``poison_idents``, not ``modes``).
    "poison",
)

#: The fault modes each backend implements.  The serial path implements
#: none.
BACKEND_FAULT_MODES: Dict[str, Tuple[str, ...]] = {
    "pool": ("hang", "crash", "corrupt-result", "poison"),
    "work-stealing": (
        "crash", "corrupt-result", "heartbeat-freeze", "duplicate-lease",
        "stale-lease", "torn-journal", "poison",
    ),
}


@dataclass(frozen=True)
class ChaosConfig:
    """When and how workers misbehave, deterministically.

    Each targeted ``(ident, attempt)`` draws one of ``modes`` by CRC32 of
    ``(seed, ident, attempt)``, so a chaotic run replays identically in
    every process and on every host.  ``rate`` is the fraction of cells
    targeted; only attempts up to ``max_attempt`` misbehave, so by
    default every fault is recoverable by a retry.  ``poison_idents``
    lists cells that fail on *every* attempt and must be quarantined.
    ``hang_seconds`` is how long a ``hang`` sleeps (past the watchdog)
    and how long a ``heartbeat-freeze`` or ``stale-lease`` holds its cell
    (past the lease TTL).
    """

    seed: int = 2019
    modes: Tuple[str, ...] = ()
    rate: float = 0.5
    max_attempt: int = 1
    hang_seconds: float = 60.0
    poison_idents: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        chosen = [mode for mode in FAULT_MODES if mode != "poison"]
        for mode in self.modes:
            if mode not in chosen:
                raise ValueError(
                    f"unknown fault mode {mode!r}; known: {', '.join(chosen)}"
                    " (poison is chosen by poison_idents)"
                )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")

    def check_backend(self, backend: str) -> None:
        """Raise :class:`ValueError` unless ``backend`` implements every
        mode this config can inject."""
        wanted = self.modes + (("poison",) if self.poison_idents else ())
        implemented = BACKEND_FAULT_MODES.get(backend, ())
        missing = [mode for mode in wanted if mode not in implemented]
        if missing:
            raise ValueError(
                f"the {backend} backend does not implement fault mode"
                f" {', '.join(missing)}; it implements:"
                f" {', '.join(implemented) or 'none'}"
            )

    def fault_for(self, ident: str, attempt: int) -> Optional[str]:
        """The fault mode for this cell attempt, or ``None`` for honesty."""
        if ident in self.poison_idents:
            return "poison"
        if not self.modes or attempt > self.max_attempt:
            return None
        digest = zlib.crc32(f"{self.seed}/{ident}/{attempt}".encode())
        if (digest % 10_000) / 10_000.0 >= self.rate:
            return None
        return self.modes[(digest >> 16) % len(self.modes)]


# -- counters -----------------------------------------------------------------


@dataclass
class RunCounters:
    """What a backend counts while it runs cells.

    A counter a backend has no mechanism for stays zero under it.
    """

    #: Failed attempts that were given another attempt.
    retries: int = 0
    #: Worker processes found dead and replaced.
    worker_crashes: int = 0
    #: Hung pool workers killed (and their cells requeued) by the watchdog.
    watchdog_kills: int = 0
    #: Results rejected by verification and recomputed.
    corrupt_results: int = 0
    #: Cells whose failures filled the attempt budget.
    quarantined: int = 0
    #: Stale work-stealing leases taken back from silent workers.
    leases_reclaimed: int = 0
    #: Cells observed to complete more than once (lease races/violations);
    #: harmless by determinism, but counted as protocol evidence.
    duplicate_completions: int = 0
    #: Cells the work-stealing parent ran inline after no worker checked in.
    fallback_cells: int = 0
    #: Cells completed by work-stealing workers other than the parent.
    cells_stolen: int = 0
    #: Worker journals found torn mid-record (masked, but never silent).
    torn_journals: int = 0
    #: The run stopped early (Ctrl-C); artifacts/manifest are partial.
    interrupted: bool = False
    #: Per-worker busy seconds, for the utilization figure.
    worker_busy: Dict[Any, float] = field(default_factory=dict)

    def absorb(self, other: "RunCounters") -> None:
        """Take every counter of ``other``."""
        for item in fields(RunCounters):
            setattr(self, item.name, getattr(other, item.name))
