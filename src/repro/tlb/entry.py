"""A single TLB entry.

Each entry stores a virtual-to-physical page translation tagged with the
owning process identifier (ASID on RISC-V) and, for the Random-Fill TLB, the
extra ``Sec`` bit of Section 4.2.2 marking translations inside the secure
region.  Replacement metadata (last-use and fill timestamps) lives directly
on the entry; policies read whichever field they need.
"""

from __future__ import annotations

from dataclasses import dataclass


#: VPN bits translated per radix level (Sv39); a level-1 "megapage" entry
#: covers 2^9 base pages (2 MiB), a level-2 "gigapage" 2^18 (1 GiB).
VPN_BITS_PER_LEVEL = 9


@dataclass(slots=True)
class TLBEntry:
    """One TLB slot.  ``valid=False`` slots hold no translation.

    ``level`` supports RISC-V superpages (the paper's intro: commercial
    TLBs carry extra logic for multiple page sizes): a level-``l`` entry
    stores a superpage-aligned translation and covers every page whose top
    VPN bits match.

    Slotted: the timing model touches millions of entries per run, and a
    fixed layout keeps each one small and its attribute reads cheap.
    """

    vpn: int = 0
    ppn: int = 0
    asid: int = 0
    valid: bool = False
    #: Superpage level: 0 = 4 KiB page, 1 = 2 MiB megapage, 2 = 1 GiB.
    level: int = 0
    #: The Random-Fill TLB's secure-region marker (Section 4.2.2); always
    #: False in the other designs.
    sec: bool = False
    #: Monotonic timestamp of the last hit or fill (LRU metadata).
    last_used: int = 0
    #: Monotonic timestamp of the fill (FIFO metadata).
    filled_at: int = 0

    def _tag(self, vpn: int) -> int:
        return vpn >> (VPN_BITS_PER_LEVEL * self.level)

    def index_key(self) -> tuple:
        """The fast-lookup key this entry answers to.

        :class:`repro.tlb.BaseTLB` maintains a dict of these keys over its
        valid entries; a lookup probes ``(tag_l(vpn), asid, l)`` for each
        superpage level ``l``, so the key must be derived from the entry's
        *own* level (superpage entries answer for every covered page).
        """
        return (self.vpn >> (VPN_BITS_PER_LEVEL * self.level), self.asid, self.level)

    def matches(self, vpn: int, asid: int) -> bool:
        """True on a hit: valid, covering ``vpn``, with matching process ID.

        Standard SA TLBs with ASIDs require both to match (Section 4.1.1);
        this is what defends the cross-process hit-based attack rows.
        Superpage entries match on the translated VPN bits only.
        """
        return (
            self.valid
            and self._tag(self.vpn) == self._tag(vpn)
            and self.asid == asid
        )

    def translate(self, vpn: int) -> int:
        """The physical page for ``vpn`` (which must be covered)."""
        offset_mask = (1 << (VPN_BITS_PER_LEVEL * self.level)) - 1
        return self.ppn + (vpn & offset_mask)

    def invalidate(self) -> None:
        self.valid = False
        self.sec = False

    def fill(
        self,
        vpn: int,
        ppn: int,
        asid: int,
        now: int,
        sec: bool = False,
        level: int = 0,
    ) -> None:
        """Install a translation, replacing whatever the slot held.

        Superpage fills store the aligned base of the superpage.
        """
        offset_mask = (1 << (VPN_BITS_PER_LEVEL * level)) - 1
        self.vpn = vpn & ~offset_mask
        self.ppn = ppn & ~offset_mask
        self.asid = asid
        self.valid = True
        self.level = level
        self.sec = sec
        self.last_used = now
        self.filled_at = now

    def touch(self, now: int) -> None:
        """Record a use (LRU update on hit)."""
        self.last_used = now

    def restore(self, saved: "TLBEntry") -> None:
        """Copy every field of ``saved`` (a :meth:`snapshot`) into this
        slot, which stays the same object."""
        self.vpn = saved.vpn
        self.ppn = saved.ppn
        self.asid = saved.asid
        self.valid = saved.valid
        self.level = saved.level
        self.sec = saved.sec
        self.last_used = saved.last_used
        self.filled_at = saved.filled_at

    def snapshot(self) -> "TLBEntry":
        """An independent copy (used by eviction reporting and the RF
        TLB's no-fill buffer)."""
        return TLBEntry(
            vpn=self.vpn,
            ppn=self.ppn,
            asid=self.asid,
            valid=self.valid,
            level=self.level,
            sec=self.sec,
            last_used=self.last_used,
            filled_at=self.filled_at,
        )
