"""Memory-management substrate: Sv39 addresses, page tables, walker.

This is the translation machinery beneath the TLBs: a three-level radix
page table per address space, a page-table walker implementing the TLB's
miss path with a per-level cycle cost (RISC-V has no page-walk cache,
footnote 3), and the context-switch TLB policies (including the
Sanctum/SGX-style flush-on-switch mitigation of Section 2.3 as an
ablation) that :class:`repro.sim.MemorySystem` applies.
"""

from .address import (
    ENTRIES_PER_TABLE,
    LEVELS,
    MAX_VPN,
    PAGE_BITS,
    PAGE_SIZE,
    VA_BITS,
    address_of,
    page_offset,
    vpn_from_levels,
    vpn_levels,
    vpn_of,
)
from .os_model import SwitchPolicy
from .page_table import PageFault, PageTable, PageTableEntry, Permission
from .walker import PageTableWalker, WalkerConfig, make_walker

__all__ = [
    "ENTRIES_PER_TABLE",
    "LEVELS",
    "MAX_VPN",
    "PAGE_BITS",
    "PAGE_SIZE",
    "PageFault",
    "PageTable",
    "PageTableEntry",
    "PageTableWalker",
    "Permission",
    "SwitchPolicy",
    "VA_BITS",
    "WalkerConfig",
    "address_of",
    "make_walker",
    "page_offset",
    "vpn_from_levels",
    "vpn_levels",
    "vpn_of",
]
