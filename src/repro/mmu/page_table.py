"""A three-level (Sv39-style) radix page table.

Each address space owns one :class:`PageTable`.  The table is a genuine
radix tree -- walks traverse one node per level, which is what gives the
page-table walker its three-memory-access cost model -- though the nodes are
Python dictionaries rather than physical memory.

Permissions follow the RISC-V PTE bits that matter to this reproduction
(read/write/execute/user); the Double Page Fault attack relies on the fact
that a translation can be *cached by the TLB even when a permission check
subsequently fails*, so lookups report permission failures separately from
missing translations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from .address import LEVELS, vpn_levels


class Permission(enum.Flag):
    """PTE permission bits (subset relevant to the evaluation)."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    EXECUTE = enum.auto()
    USER = enum.auto()

    @classmethod
    def rw(cls) -> "Permission":
        # Every auto-mapped page takes this flag, and OR-ing enum.Flag
        # members costs microseconds a call, so it is built once below.
        return _USER_RW

    @classmethod
    def rx(cls) -> "Permission":
        return cls.READ | cls.EXECUTE | cls.USER


_USER_RW = Permission.READ | Permission.WRITE | Permission.USER


@dataclass
class PageTableEntry:
    """A leaf PTE: the physical page plus its permission bits.

    ``level`` > 0 marks a superpage leaf stored at an interior radix level
    (RISC-V Sv39: level 1 = 2 MiB megapage, level 2 = 1 GiB gigapage); it
    translates a whole aligned region with one entry -- the basis of the
    "large pages for crypto libraries" software mitigation of Section 2.3.
    """

    ppn: int
    permissions: Permission = Permission.NONE
    #: x86-style global bit; kept for the software-mitigation discussion of
    #: Section 2.3 (global pages survive per-ASID flushes).
    global_page: bool = False
    #: Superpage level (0 = ordinary 4 KiB leaf).
    level: int = 0

    def allows(self, required: Permission) -> bool:
        return (self.permissions & required) == required

    def translate(self, vpn: int) -> int:
        """The physical page for ``vpn`` within this (super)page."""
        offset_mask = (1 << (9 * self.level)) - 1
        return self.ppn + (vpn & offset_mask)


class PageFault(Exception):
    """Raised when a walk finds no valid translation for a page."""

    def __init__(self, vpn: int, asid: int) -> None:
        super().__init__(f"page fault: vpn={vpn:#x} asid={asid}")
        self.vpn = vpn
        self.asid = asid


class _Node:
    """One radix-tree node: index -> child node or leaf PTE."""

    __slots__ = ("children",)

    def __init__(self) -> None:
        self.children: Dict[int, object] = {}


class PageTable:
    """One address space's three-level radix page table."""

    def __init__(self, asid: int = 0) -> None:
        self.asid = asid
        self._root = _Node()
        self._mapped = 0
        self._version = 0
        #: Monotonic: has this table *ever* held a superpage leaf?  The
        #: run kernel's reuse oracle (which assumes every walk returns a
        #: 4 KiB leaf at full-walk cost) keys off this instead of a live
        #: count, so leaf-replacement corner cases can never resurrect
        #: the assumption once broken.
        self.superpages_ever = False

    @property
    def version(self) -> int:
        """Monotonic mapping-change counter.

        Bumped by every :meth:`map_page` / :meth:`unmap_page` that alters a
        translation.  It is part of the walker's ``memo_token``, so the run
        kernel's walk cache treats any bump as wholesale invalidation and a
        remap can never serve a stale cached walk.
        """
        return self._version

    def __len__(self) -> int:
        return self._mapped

    def map_page(
        self,
        vpn: int,
        ppn: int,
        permissions: Permission = Permission.rw(),
        global_page: bool = False,
        level: int = 0,
    ) -> PageTableEntry:
        """Install (or replace) the leaf PTE for ``vpn``.

        ``level`` > 0 installs a superpage leaf at the corresponding
        interior radix level; ``vpn`` and ``ppn`` must be aligned to the
        superpage size.
        """
        if not 0 <= level < LEVELS:
            raise ValueError(f"level must be in [0, {LEVELS}), got {level}")
        alignment = (1 << (9 * level)) - 1
        if vpn & alignment or ppn & alignment:
            raise ValueError(
                f"superpage base must be {1 << (9 * level)}-page aligned"
            )
        node = self._root
        indices = vpn_levels(vpn)
        depth = LEVELS - 1 - level  # radix depth of the leaf's parent node
        for index in indices[:depth]:
            child = node.children.get(index)
            if not isinstance(child, _Node):
                child = _Node()
                node.children[index] = child
            node = child
        leaf_index = indices[depth]
        if leaf_index not in node.children:
            self._mapped += 1
        self._version += 1
        if level:
            self.superpages_ever = True
        entry = PageTableEntry(
            ppn=ppn,
            permissions=permissions,
            global_page=global_page,
            level=level,
        )
        node.children[leaf_index] = entry
        return entry

    def unmap_page(self, vpn: int) -> bool:
        """Remove the leaf PTE covering ``vpn``; True if one existed."""
        node = self._root
        indices = vpn_levels(vpn)
        for index in indices:
            child = node.children.get(index)
            if isinstance(child, PageTableEntry):
                del node.children[index]
                self._mapped -= 1
                self._version += 1
                return True
            if not isinstance(child, _Node):
                return False
            node = child
        return False  # pragma: no cover - leaves end traversal

    def lookup(self, vpn: int) -> Optional[PageTableEntry]:
        """The leaf PTE covering ``vpn`` (4 KiB or superpage)."""
        return self.walk_levels(vpn)[1]

    def walk_levels(self, vpn: int) -> Tuple[int, Optional[PageTableEntry]]:
        """The leaf PTE covering ``vpn`` plus the number of radix levels
        touched -- the walker's cycle cost is proportional to this, so
        superpage translations walk faster."""
        node = self._root
        indices = vpn_levels(vpn)
        touched = 0
        for index in indices:
            touched += 1
            child = node.children.get(index)
            if isinstance(child, PageTableEntry):
                return touched, child
            if not isinstance(child, _Node):
                return touched, None
            node = child
        return touched, None  # pragma: no cover - leaves end traversal

    def checkpoint(self) -> tuple:
        """This table's mappings and counters, for :meth:`rewind`.

        Holds each radix node with a copy of its children; leaf PTEs are
        shared, since a remap installs a new one rather than editing it.
        """
        nodes = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            nodes.append((node, dict(node.children)))
            stack.extend(
                child for child in node.children.values()
                if isinstance(child, _Node)
            )
        return nodes, self._mapped, self._version, self.superpages_ever

    def rewind(self, state: tuple) -> None:
        """Return to a :meth:`checkpoint`, in place: nodes created since
        become unreachable and every checkpointed node gets its children
        back."""
        nodes, self._mapped, self._version, self.superpages_ever = state
        for node, children in nodes:
            node.children.clear()
            node.children.update(children)

    def mapped_pages(self) -> Iterator[int]:
        """All mapped VPNs (for inspection; order unspecified)."""

        def visit(node: _Node, prefix: Tuple[int, ...]) -> Iterator[int]:
            for index, child in node.children.items():
                path = prefix + (index,)
                if isinstance(child, _Node):
                    yield from visit(child, path)
                else:
                    from .address import vpn_from_levels

                    padded = path + (0,) * (LEVELS - len(path))
                    yield vpn_from_levels(*padded)

        yield from visit(self._root, ())
