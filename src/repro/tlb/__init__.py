"""Behavioural simulators of the paper's TLB designs (Section 4).

* :class:`SetAssociativeTLB` -- the standard baseline (also covers fully
  associative and single-entry organizations via :class:`TLBConfig`);
* :class:`StaticPartitionTLB` -- the SP TLB (way-partitioned, Section 4.1);
* :class:`RandomFillTLB` -- the RF TLB (Sec bit + Random Fill Engine +
  no-fill buffer, Section 4.2).

All designs share the hit path (page number and ASID must match), the
statistics counters of :class:`TLBStats`, and the maintenance operations
(full/per-ASID flush, targeted invalidation with Appendix B's
presence-dependent timing).  :func:`make_tlb` (over :class:`TLBKind`) and
:func:`make_hierarchy` are the factories every drive loop builds with.
"""

from .base import (
    AccessResult,
    BaseTLB,
    IdentityTranslator,
    Translator,
    WalkResult,
)
from .config import (
    ReplacementKind,
    TLBConfig,
    fully_associative,
    single_entry,
)
from .entry import TLBEntry
from .replacement import (
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    TreePLRUPolicy,
    make_policy,
)
from .dp import DynamicPartitionTLB
from .hierarchy import PageWalkCache, PWCStats, TLBHierarchy
from .spec import HierarchySpec, LevelSpec, PWCSpec
from .rf import RandomFillEngine, RandomFillTLB
from .sa import SetAssociativeTLB
from .sp import StaticPartitionTLB
from .stats import TLBStats
from .kinds import TLBKind, make_hierarchy, make_tlb

__all__ = [
    "AccessResult",
    "BaseTLB",
    "DynamicPartitionTLB",
    "FIFOPolicy",
    "HierarchySpec",
    "IdentityTranslator",
    "LRUPolicy",
    "LevelSpec",
    "PWCSpec",
    "PWCStats",
    "PageWalkCache",
    "RandomFillEngine",
    "RandomFillTLB",
    "RandomPolicy",
    "ReplacementKind",
    "ReplacementPolicy",
    "SetAssociativeTLB",
    "StaticPartitionTLB",
    "TLBConfig",
    "TLBEntry",
    "TLBHierarchy",
    "TLBKind",
    "TLBStats",
    "Translator",
    "TreePLRUPolicy",
    "WalkResult",
    "fully_associative",
    "make_hierarchy",
    "make_policy",
    "make_tlb",
    "single_entry",
]
