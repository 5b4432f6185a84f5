"""The experiment registry: named, shardable units of evaluation work.

Every paper artifact is produced by an *experiment* -- a named object that

* enumerates its work as :class:`Unit` cells (``units``), each small enough
  to schedule independently and each deterministically seeded from its own
  identity, never from execution order;
* runs one cell from plain, picklable parameters (``run``) -- a pure
  function resolvable by name inside a worker process, so only
  ``(experiment, params)`` ever crosses the process boundary;
* merges the ordered cell results back into one domain object
  (``assemble``), from which :mod:`repro.runner.results` renders the
  experiment's ``results/`` text.

Experiments register themselves with the :func:`register` decorator at
import time; :func:`ensure_default_experiments` imports the standard set
(:mod:`repro.runner.experiments`).  Tests may register additional
experiments -- under the default ``fork`` start method the workers inherit
them.
"""

from __future__ import annotations

import fnmatch
import json
import zlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
)

# The option kinds live in a leaf module the command line imports alone;
# experiments declare their options through this one.
from repro.options import COUNT, COUNT_SERIES, FLAG, SEED, Kind, Option  # noqa: F401

#: Global experiment registry, in registration (= presentation) order.
REGISTRY: "Dict[str, Experiment]" = {}


def stable_seed(*parts: Any) -> int:
    """A seed derived from a label, stable across processes and runs.

    ``str.__hash__`` is salted per interpreter; CRC32 of the joined parts
    is not, so shard seeds survive re-execution and remote workers.
    """
    label = "/".join(str(part) for part in parts)
    return zlib.crc32(label.encode())


@dataclass(frozen=True)
class Unit:
    """One shardable cell of an experiment.

    ``params`` must be picklable and JSON-serializable: it is the complete
    input of the cell (trial counts included), crosses the worker queue,
    and keys the result cache together with ``seed`` and the code version.
    """

    experiment: str
    key: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0

    @property
    def ident(self) -> str:
        """The unit's path-like identity, e.g. ``table4/SA/A_d -> V_u -> V_a``."""
        return f"{self.experiment}/{self.key}"

    def identity(self, code_version: str) -> str:
        """Everything that decides this cell's result under ``code_version``,
        as canonical JSON: what the cache key hashes, and what a stored
        outcome must name to be read back as this cell's."""
        return json.dumps(
            {
                "experiment": self.experiment,
                "key": self.key,
                "params": dict(self.params),
                "seed": self.seed,
                "code_version": code_version,
            },
            sort_keys=True,
            default=str,
        )


class Experiment:
    """Base class for registered experiments.

    Subclasses set :attr:`name` (via :func:`register`) and implement
    :meth:`units`, :meth:`run` (as a ``staticmethod``) and :meth:`assemble`.
    """

    name: str = ""
    #: Every option :meth:`units` reads; no other experiment declares one.
    #: A default may lie outside its kind (say, zero cells: inert).
    declared_options: Tuple[Option, ...] = ()
    #: The declared option that a service spec's ``trials`` shorthand and
    #: the experiment command's ``--trials`` set.
    trials_option: Optional[str] = None

    def unit(self, key: str, **params: Any) -> Unit:
        return Unit(
            experiment=self.name,
            key=key,
            params=params,
            seed=stable_seed(self.name, key),
        )

    def units(self, options: Mapping[str, Any]) -> List[Unit]:
        """Enumerate the experiment's cells in canonical merge order."""
        raise NotImplementedError

    @staticmethod
    def run(params: Mapping[str, Any]) -> Any:
        """Run one cell.  Must be pure and depend only on ``params``."""
        raise NotImplementedError

    def affinity(self, params: Mapping[str, Any]) -> Optional[Hashable]:
        """The cell's affinity group, or None for none.

        Cells of one group build the same costly state (a compiled
        trace, say), which each process keeps for its later cells; the
        process pool therefore runs a group's cells in one worker where
        it can (:func:`repro.runner.scheduler.pick_cell`).  A hint only:
        results never depend on it.
        """
        return None

    def assemble(self, values: List[Any], options: Mapping[str, Any]) -> Any:
        """Reassemble cell results (in ``units`` order) into the
        experiment's domain object (a table dict, a cell list, ...).

        Artifact *files* -- including those that combine several
        experiments, like ``mitigations.txt`` -- are written by
        :mod:`repro.runner.results` from these objects, so the byte-exact
        formatting lives in one place.
        """
        return values


def register(name: str) -> Callable[[Type[Experiment]], Type[Experiment]]:
    """Class decorator: instantiate and register an experiment under ``name``."""

    def wrap(cls: Type[Experiment]) -> Type[Experiment]:
        cls.name = name
        REGISTRY[name] = cls()
        return cls

    return wrap


def ensure_default_experiments() -> None:
    """Idempotently import the standard experiment definitions."""
    from repro.runner import experiments  # noqa: F401  (import-time side effect)


def get_experiment(name: str) -> Experiment:
    if name not in REGISTRY:
        ensure_default_experiments()
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; known: {sorted(REGISTRY)}"
        ) from None


def all_experiments() -> List[Experiment]:
    ensure_default_experiments()
    return list(REGISTRY.values())


def matches_filter(unit: Unit, patterns: Optional[Iterable[str]]) -> bool:
    """Glob filtering over experiment names and full unit identities.

    ``table2*`` selects every unit of experiments whose name matches;
    ``table4/SA/*`` selects individual cells.
    """
    if not patterns:
        return True
    return any(
        fnmatch.fnmatch(unit.experiment, pattern)
        or fnmatch.fnmatch(unit.ident, pattern)
        for pattern in patterns
    )


def resolve_options(
    overrides: Mapping[str, Any], experiment: Optional[str] = None
) -> Dict[str, Any]:
    """Every declared option (only ``experiment``'s, if given), overridden.

    Raises :class:`ValueError` naming the first override that no
    experiment declares, that ``experiment`` does not read, or whose
    value its kind does not admit.
    """
    declared = {
        option.name: (owner.name, option)
        for owner in all_experiments()
        for option in owner.declared_options
    }
    for key, value in overrides.items():
        if key not in declared:
            raise ValueError(f"unknown option {key!r}; known: {', '.join(sorted(declared))}")
        owner, option = declared[key]
        if experiment not in (None, owner):
            raise ValueError(f"option {key!r} is read by experiment {owner!r}, not {experiment!r}")
        if not option.kind.admits(value):
            raise ValueError(f"option {key!r} must be {option.kind.noun}")
    return {
        name: overrides.get(name, option.default)
        for name, (owner, option) in declared.items()
        if experiment in (None, owner)
    }


def expand_units(
    options: Mapping[str, Any],
    filters: Optional[Iterable[str]] = None,
) -> List[Unit]:
    """Enumerate every registered experiment's units, filtered."""
    options = resolve_options(options)
    units: List[Unit] = []
    for experiment in all_experiments():
        units.extend(
            unit
            for unit in experiment.units(options)
            if matches_filter(unit, filters)
        )
    return units
