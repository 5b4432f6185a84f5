"""The TLB design selector and factories every drive loop builds with.

They live beside the designs they build, so building a TLB loads
nothing of the security evaluator or the CPU it drives.
"""

from __future__ import annotations

import enum
import random
from typing import Optional

from .base import BaseTLB
from .config import TLBConfig
from .hierarchy import PageWalkCache, TLBHierarchy
from .rf import RandomFillTLB
from .sa import SetAssociativeTLB
from .sp import StaticPartitionTLB
from .spec import HierarchySpec


class TLBKind(enum.Enum):
    """The three designs compared throughout the paper."""

    SA = "SA"
    SP = "SP"
    RF = "RF"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def make_tlb(
    kind: TLBKind,
    config: TLBConfig,
    victim_asid: int = 1,
    victim_ways: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> BaseTLB:
    """Instantiate one of the three designs over a common configuration."""
    if kind is TLBKind.SA:
        return SetAssociativeTLB(config)
    if kind is TLBKind.SP:
        return StaticPartitionTLB(
            config, victim_asid=victim_asid, victim_ways=victim_ways
        )
    if kind is TLBKind.RF:
        return RandomFillTLB(config, victim_asid=victim_asid, rng=rng)
    raise ValueError(f"unknown TLB kind {kind}")  # pragma: no cover


def make_hierarchy(
    spec: HierarchySpec,
    victim_asid: int = 1,
    rng: Optional[random.Random] = None,
) -> TLBHierarchy:
    """Build a live :class:`repro.tlb.TLBHierarchy` from a declarative spec.

    The one sanctioned constructor for multi-level TLBs (the invariant
    linter keeps direct ``TLBHierarchy`` construction out of the drive
    loops).  Levels are instantiated outermost first, sharing ``rng`` so
    RF levels draw from one stream; SP levels default to the paper's
    even way split unless the spec's ``victim_ways`` overrides it;
    levels with ``sec_bit`` disabled are excluded from
    ``set_secure_region`` propagation; and a ``pwc`` entry appends a
    :class:`repro.tlb.PageWalkCache` behind the last level.
    """
    levels = [
        make_tlb(
            TLBKind(level.kind),
            level.config(),
            victim_asid=victim_asid,
            victim_ways=level.effective_victim_ways(),
            rng=rng,
        )
        for level in spec.levels
    ]
    secure = [
        index for index, level in enumerate(spec.levels) if level.sec_bit
    ]
    return TLBHierarchy(
        levels,
        name=spec.label(),
        pwc=PageWalkCache(spec.pwc) if spec.pwc is not None else None,
        secure_levels=None if len(secure) == len(spec.levels) else secure,
    )

