"""Content-addressed on-disk cache for experiment cell results.

A cell's cache key is the SHA-256 of its complete identity: experiment
name, unit key, canonicalized parameters, shard seed, and a fingerprint of
the :mod:`repro` source tree.  Re-running an unchanged configuration hits
the cache; changing a parameter, a seed, or any line of code under
``src/repro`` misses and recomputes.

An entry is the cell's finished :class:`~repro.runner.scheduler.TaskOutcome`
in its one at-rest encoding: the envelope its worker sealed (the pickled
value's bytes and their SHA-256) beside the cell's identity, stored one
file per cell under ``<root>/<aa>/<hash>.pkl`` next to a small JSON sidecar
of provenance metadata for inspection.  Every read verifies the entry: one
that is torn, names another cell or code version, or fails its SHA-256 is a
corrupt miss, recomputed and overwritten by the next store.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Tuple, Union

from .registry import Unit
from .scheduler import IntegrityError, TaskOutcome

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

_code_fingerprint_cache: Optional[str] = None


def code_fingerprint() -> str:
    """A digest of every ``.py`` file under the :mod:`repro` package.

    Any source change -- a fixed bug, a new parameter default -- must
    invalidate cached results, since cached values are only as trustworthy
    as the code that computed them.
    """
    global _code_fingerprint_cache
    if _code_fingerprint_cache is None:
        import repro

        package_root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_fingerprint_cache = digest.hexdigest()
    return _code_fingerprint_cache


def unit_cache_key(unit: Unit, code_version: str) -> str:
    """The stable content address of one cell's result."""
    return hashlib.sha256(unit.identity(code_version).encode()).hexdigest()


#: Per-process staging-name counter; see :func:`_atomic_write`.
_tmp_serial = itertools.count()


def _atomic_write(path: Path, data: Union[bytes, str]) -> None:
    """Write-then-rename so concurrent readers and writers never collide.

    The staging name embeds the PID and a per-process serial: parallel
    writers racing on the same key (two workers recomputing one cell, two
    ``run-all`` invocations sharing a cache) each stage privately and the
    last rename wins whole, instead of interleaving writes into one shared
    ``.tmp`` file.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_tmp_serial)}.tmp")
    if isinstance(data, bytes):
        tmp.write_bytes(data)
    else:
        tmp.write_text(data)
    tmp.replace(path)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries found on disk but refused by the verified read (torn,
    #: misfiled or tampered); treated as misses and repaired by the next
    #: store.
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        """Queryable counter snapshot (run-all summaries, /v1/metrics)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "hit_rate": round(self.hit_rate, 4),
        }


class ResultCache:
    """The on-disk result store (see module docstring)."""

    def __init__(
        self,
        root: Path | str = DEFAULT_CACHE_DIR,
        code_version: Optional[str] = None,
    ) -> None:
        self.root = Path(root)
        self.code_version = (
            code_version if code_version is not None else code_fingerprint()
        )
        self.stats = CacheStats()

    def path(self, key: str) -> Path:
        """Where the entry for cache key ``key`` lives."""
        return self.root / key[:2] / f"{key}.pkl"

    def load(self, unit: Unit) -> Optional[TaskOutcome]:
        """``unit``'s stored outcome, verified; None when there is none.

        Raises :class:`~repro.runner.scheduler.IntegrityError` for an
        entry :meth:`TaskOutcome.decode` refuses.
        """
        path = self.path(unit_cache_key(unit, self.code_version))
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as error:
            raise IntegrityError(f"unreadable result record: {error}") from None
        return TaskOutcome.decode(unit, self.code_version, data)

    def get(self, unit: Unit) -> Tuple[bool, Any]:
        """Look one cell up; returns ``(hit, value)``."""
        try:
            outcome = self.load(unit)
        except IntegrityError:
            # Overwritten by the next store of this cell.
            self.stats.corrupt += 1
            outcome = None
        if outcome is None:
            self.stats.misses += 1
            return False, None
        self.stats.hits += 1
        return True, outcome.value

    def put(self, outcome: TaskOutcome) -> None:
        """Store a freshly run cell's outcome, envelope as sealed."""
        unit = outcome.unit
        path = self.path(unit_cache_key(unit, self.code_version))
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(path, outcome.encode(self.code_version))
        sidecar = json.loads(unit.identity(self.code_version))
        sidecar["elapsed"] = outcome.elapsed
        _atomic_write(
            path.with_suffix(".json"),
            json.dumps(sidecar, sort_keys=True, default=str) + "\n",
        )
        self.stats.stores += 1

    def drop(self, key: str) -> None:
        """Delete the entry for cache key ``key`` and its sidecar."""
        path = self.path(key)
        for stale in (path, path.with_suffix(".json")):
            stale.unlink(missing_ok=True)
