"""The page-table walker: the TLB's miss-path translation source.

Implements the :class:`repro.tlb.Translator` protocol.  The walker resolves
(vpn, asid) against the page table registered for that ASID, charging one
memory access per radix level touched -- the "slow" side of the timing
channel.  RISC-V has no page-walk cache (paper footnote 3), so every walk
pays the full radix traversal.

``auto_map`` reproduces the paper's footnote 5 assumption: the OS has
pre-generated page-table entries for any page the Random Fill Engine may
request, so a walk for an RFE-drawn address never page-faults.  With
``auto_map`` disabled, unmapped pages raise :class:`PageFault`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.tlb.base import WalkResult

from .address import LEVELS
from .page_table import PageFault, PageTable, Permission

#: Auto-mapped pages take sequential physical frames from here up.
_FIRST_AUTO_FRAME = 0x8000


@dataclass(frozen=True)
class WalkerConfig:
    """Cost model for walks."""

    #: Cycles per page-table memory access (one per level).
    cycles_per_level: int = 10

    def __post_init__(self) -> None:
        if self.cycles_per_level <= 0:
            raise ValueError("cycles_per_level must be positive")


class PageTableWalker:
    """Walks the page table registered for each address space."""

    def __init__(
        self,
        config: WalkerConfig = WalkerConfig(),
        auto_map: bool = False,
    ) -> None:
        self.config = config
        self.auto_map = auto_map
        self._tables: Dict[int, PageTable] = {}
        #: The physical frame the next auto-mapped page receives.
        self._next_frame = _FIRST_AUTO_FRAME
        self.walks = 0
        self.faults = 0
        #: Bumped whenever an address space is (re-)registered, so
        #: :meth:`memo_token` can never alias a fresh table whose version
        #: counter happens to match the old one's.
        self._register_epoch = 0

    def register(self, table: PageTable) -> None:
        """Attach an address space (keyed by its ASID)."""
        self._tables[table.asid] = table
        self._register_epoch += 1

    def memo_token(self, asid: int) -> int:
        """Walk-memoization validity token for one address space.

        The run kernel (:meth:`repro.tlb.BaseTLB.translate_runs`) caches
        packed walk results across quanta and revalidates them by
        comparing this token: it changes whenever the ASID's mappings
        change (page-table version) or the table object itself is
        replaced (registration epoch), the only events that could make a
        cached result differ from a fresh :meth:`walk`.  Auto-mapping
        unseen pages bumps the version too -- that only costs a
        conservative cache drop after warm-up quanta, never staleness.
        Returns -1 while the ASID has no table (nothing may be cached).
        """
        table = self._tables.get(asid)
        if table is None:
            return -1
        return (self._register_epoch << 40) | table.version

    def has_superpages(self, asid: int) -> bool:
        """Whether the ASID's table has *ever* mapped a superpage leaf.

        The run kernel's reuse oracle assumes every walk returns a 4 KiB
        leaf at full-walk cost; it refuses to engage (and, via the
        mapping token, to stay engaged) once this is true.  Conservative
        and monotonic on purpose -- see ``PageTable.superpages_ever``.
        """
        table = self._tables.get(asid)
        return table is not None and table.superpages_ever

    def table_for(self, asid: int) -> PageTable:
        try:
            return self._tables[asid]
        except KeyError:
            if self.auto_map:
                table = PageTable(asid)
                self._tables[asid] = table
                return table
            raise PageFault(vpn=0, asid=asid) from None

    def walk(self, vpn: int, asid: int) -> WalkResult:
        """Resolve a translation, charging one access per level touched."""
        self.walks += 1
        table = self.table_for(asid)
        levels_touched, entry = table.walk_levels(vpn)
        if entry is None:
            if not self.auto_map:
                self.faults += 1
                raise PageFault(vpn=vpn, asid=asid)
            entry = table.map_page(vpn, self._next_frame, Permission.rw())
            self._next_frame += 1
            levels_touched = LEVELS
        return WalkResult(
            ppn=entry.translate(vpn),
            cycles=levels_touched * self.config.cycles_per_level,
            level=entry.level,
        )

    def peek(self, vpn: int, asid: int) -> Optional[int]:
        """Side-effect-free translation lookup: the PPN, or ``None``.

        Unlike :meth:`walk`, peeking never auto-maps, charges no cycles
        and counts no walks -- it reads the page table as ground truth.
        The :mod:`repro.faults` detectors use it to cross-check every live
        TLB entry against the OS's mapping, so a corrupted PPN or ASID tag
        (a translation the page tables never produced) is observable.
        """
        table = self._tables.get(asid)
        if table is None:
            return None
        entry = table.lookup(vpn)
        return None if entry is None else entry.translate(vpn)

    def allows(self, vpn: int, asid: int, required: Permission) -> bool:
        """Permission check for an already-translated access.

        Separated from :meth:`walk` on purpose: hardware caches the
        translation *before* the permission check faults, which is the
        premise of the Double Page Fault attack (a second access to a
        forbidden page is fast because the TLB already holds the entry).
        """
        table = self._tables.get(asid)
        if table is None:
            return False
        entry = table.lookup(vpn)
        if entry is None:
            # A page that would be auto-mapped defaults to user read/write.
            return self.auto_map and (Permission.rw() & required) == required
        return entry.allows(required)

    @property
    def full_walk_cycles(self) -> int:
        """Latency of a complete (successful) walk."""
        return LEVELS * self.config.cycles_per_level

    # -- checkpoints ----------------------------------------------------------------

    def checkpoint(self) -> tuple:
        """This walker's state, for :meth:`rewind`: every registered
        table's own checkpoint, the next frame and the counters."""
        return (
            [
                (asid, table, table.checkpoint())
                for asid, table in self._tables.items()
            ],
            self._next_frame,
            self.walks,
            self.faults,
            self._register_epoch,
        )

    def rewind(self, state: tuple) -> None:
        """Return to a :meth:`checkpoint`, in place.

        Tables auto-created since are dropped and the rest rewound, so a
        rewound walker maps and allocates frames exactly as it did after
        the checkpoint.
        """
        (tables, self._next_frame, self.walks, self.faults,
         self._register_epoch) = state
        self._tables.clear()
        for asid, table, table_state in tables:
            self._tables[asid] = table
            table.rewind(table_state)


def make_walker(
    config: Optional[WalkerConfig] = None,
    auto_map: bool = True,
) -> PageTableWalker:
    """The registered walker factory the drive loops go through.

    Defaults match how every experiment builds its walker (``auto_map``
    on, footnote 5's pre-generated page tables); the invariant linter
    (``repro.analysis``) enforces that walkers are constructed only here
    and in the :class:`repro.sim.MemorySystem` default, so the cost model
    stays configured in one place.
    """
    return PageTableWalker(config=config or WalkerConfig(), auto_map=auto_map)
