"""Declarative TLB-hierarchy specifications.

A :class:`HierarchySpec` is the one description of a TLB design -- flat
or multi-level -- that every layer consumes: the security evaluator
measures it, :func:`repro.tlb.make_hierarchy` builds the live
:class:`repro.tlb.TLBHierarchy` from it, the runner's hierarchy-sweep
cells carry it in their params (as the plain JSON dict of
:meth:`HierarchySpec.to_dict`, read back by :func:`coerce_spec`), and
``repro serve`` specs round-trip it over HTTP.  Levels are ordered
outermost first (index 0 is the L1 the CPU probes); each level picks
one of the paper's designs and its own geometry, and an optional
:class:`PWCSpec` appends a page-walk cache behind the last level -- the
architectural (latency-bearing) version of the walk cache that the run
kernel (:class:`repro.sim.kernel.RunState`) keeps for pure replay speed.

The spec is deliberately plain data -- strings and ints only -- so cells
stay picklable and cache keys stay stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from .config import ReplacementKind, TLBConfig

#: The design names a level may pick (mirrors ``repro.security.TLBKind``;
#: kept as strings so this module stays importable without the security
#: layer).
LEVEL_KINDS = ("SA", "SP", "RF")


@dataclass(frozen=True)
class LevelSpec:
    """One TLB level: design kind plus geometry and policy knobs."""

    #: ``"SA"``, ``"SP"`` or ``"RF"``.
    kind: str
    sets: int
    ways: int
    hit_latency: int = 1
    #: log2 of the page size (12 = 4 KiB, the paper's default).
    page_bits: int = 12
    #: Replacement policy value (see :class:`repro.tlb.ReplacementKind`).
    policy: str = ReplacementKind.LRU.value
    #: SP only: ways reserved for the victim partition.  ``None`` keeps
    #: the paper's convention of an even split (``ways // 2``).
    victim_ways: Optional[int] = None
    #: Whether this level's secure-region registers are programmed when
    #: the hierarchy's ``set_secure_region`` is called.  Only meaningful
    #: for RF levels; disabling it models an RF array whose Sec-bit
    #: machinery is left unconfigured.
    sec_bit: bool = True

    def __post_init__(self) -> None:
        if self.kind not in LEVEL_KINDS:
            raise ValueError(
                f"unknown level kind {self.kind!r}"
                f" (expected one of {', '.join(LEVEL_KINDS)})"
            )
        if self.sets <= 0 or self.ways <= 0:
            raise ValueError("sets and ways must be positive")
        if self.victim_ways is not None:
            if self.kind != "SP":
                raise ValueError(
                    "victim_ways is only meaningful for SP levels"
                )
            if not 0 < self.victim_ways < self.ways:
                raise ValueError(
                    "victim_ways must leave both partitions at least one"
                    f" way (got {self.victim_ways} of {self.ways})"
                )
        ReplacementKind(self.policy)  # Validate eagerly: fail at spec time.

    @property
    def entries(self) -> int:
        return self.sets * self.ways

    def config(self) -> TLBConfig:
        """The level's :class:`TLBConfig`."""
        return TLBConfig(
            entries=self.entries,
            ways=self.ways,
            page_bits=self.page_bits,
            hit_latency=self.hit_latency,
            replacement=ReplacementKind(self.policy),
        )

    def effective_victim_ways(self) -> Optional[int]:
        """The SP way split actually used (``None`` for non-SP levels)."""
        if self.kind != "SP":
            return None
        if self.victim_ways is not None:
            return self.victim_ways
        return self.ways // 2

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "sets": self.sets,
            "ways": self.ways,
            "hit_latency": self.hit_latency,
            "page_bits": self.page_bits,
            "policy": self.policy,
            "victim_ways": self.victim_ways,
            "sec_bit": self.sec_bit,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LevelSpec":
        return cls(
            kind=data["kind"],
            sets=data["sets"],
            ways=data["ways"],
            hit_latency=data.get("hit_latency", 1),
            page_bits=data.get("page_bits", 12),
            policy=data.get("policy", ReplacementKind.LRU.value),
            victim_ways=data.get("victim_ways"),
            sec_bit=data.get("sec_bit", True),
        )

    @classmethod
    def from_config(
        cls,
        kind: str,
        config: TLBConfig,
        victim_ways: Optional[int] = None,
        sec_bit: bool = True,
    ) -> "LevelSpec":
        """Lift an existing :class:`TLBConfig` into a level spec."""
        return cls(
            kind=kind,
            sets=config.sets,
            ways=config.ways,
            hit_latency=config.hit_latency,
            page_bits=config.page_bits,
            policy=config.replacement.value,
            victim_ways=victim_ways,
            sec_bit=sec_bit,
        )


@dataclass(frozen=True)
class PWCSpec:
    """An optional page-walk cache behind the last TLB level.

    Unlike the run kernel's walk cache (which charges full walk cycles,
    per the paper's footnote 3), the PWC is architectural: a hit returns in
    ``hit_latency`` cycles instead of the walk's.  Hierarchies with a PWC
    therefore model hardware the paper's timing analysis excludes, which
    is exactly what the sweep's PWC on/off axis measures.
    """

    entries: int = 16
    hit_latency: int = 2

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ValueError("PWC needs at least one entry")
        if self.hit_latency < 0:
            raise ValueError("PWC hit latency cannot be negative")

    def to_dict(self) -> Dict[str, Any]:
        return {"entries": self.entries, "hit_latency": self.hit_latency}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PWCSpec":
        return cls(
            entries=data.get("entries", 16),
            hit_latency=data.get("hit_latency", 2),
        )


@dataclass(frozen=True)
class HierarchySpec:
    """An N-level TLB hierarchy, outermost level first, plus optional PWC."""

    levels: Tuple[LevelSpec, ...]
    pwc: Optional[PWCSpec] = None
    name: str = ""

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a hierarchy needs at least one level")

    def label(self) -> str:
        """A compact human label, e.g. ``"SP+SA" `` or ``"RF+SA+pwc"``."""
        if self.name:
            return self.name
        parts = [level.kind for level in self.levels]
        label = "+".join(parts)
        return f"{label}+pwc" if self.pwc else label

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "levels": [level.to_dict() for level in self.levels],
        }
        if self.pwc is not None:
            data["pwc"] = self.pwc.to_dict()
        if self.name:
            data["name"] = self.name
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HierarchySpec":
        pwc = data.get("pwc")
        return cls(
            levels=tuple(
                LevelSpec.from_dict(level) for level in data["levels"]
            ),
            pwc=PWCSpec.from_dict(pwc) if pwc is not None else None,
            name=data.get("name", ""),
        )

    @classmethod
    def flat(cls, kind: str, config: TLBConfig) -> "HierarchySpec":
        """A single-level design, named by its kind (Table 4's designs)."""
        return cls(levels=(LevelSpec.from_config(kind, config),), name=kind)

    @classmethod
    def two_level(
        cls,
        l1_kind: str,
        l2_kind: str,
        l1_config: TLBConfig,
        l2_config: TLBConfig,
        pwc: Optional[PWCSpec] = None,
        name: str = "",
    ) -> "HierarchySpec":
        """The classic L1-backed-by-L2 shape the ablation study uses."""
        return cls(
            levels=(
                LevelSpec.from_config(l1_kind, l1_config),
                LevelSpec.from_config(l2_kind, l2_config),
            ),
            pwc=pwc,
            name=name,
        )


#: A spec or its plain-dict form (the shape runner cells and spec files
#: carry).
SpecLike = Union[HierarchySpec, Mapping[str, Any]]


def coerce_spec(spec: SpecLike) -> HierarchySpec:
    """Accept a spec or its :meth:`HierarchySpec.to_dict` form.

    A malformed dict form raises :class:`ValueError` naming the bad
    field, so spec files fail with a message rather than a traceback.
    """
    if isinstance(spec, HierarchySpec):
        return spec
    if not isinstance(spec, Mapping):
        raise ValueError(
            f"a spec must be an object with 'levels', not a"
            f" {type(spec).__name__}"
        )
    levels = spec.get("levels")
    if not isinstance(levels, (list, tuple)) or not levels:
        raise ValueError("'levels' must be a non-empty list of levels")
    for index, level in enumerate(levels):
        if not isinstance(level, Mapping):
            raise ValueError(f"levels[{index}] must be an object")
        for key in ("kind", "sets", "ways"):
            if key not in level:
                raise ValueError(f"levels[{index}] is missing {key!r}")
    return HierarchySpec.from_dict(spec)
