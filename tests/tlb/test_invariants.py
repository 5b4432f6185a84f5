"""Cross-design TLB invariants.

The four organizations the paper evaluates -- set-associative (SA), fully
associative (FA), static-partition (SP) and random-fill (RF) -- share the
:class:`repro.tlb.BaseTLB` template.  These tests pin the template's
structural invariants across all of them: capacity is never exceeded,
per-ASID flushes are surgical, LRU picks the least-recently-used victim,
and the snapshot copies handed out by the introspection APIs are isolated
from live state.
"""

from __future__ import annotations

import random

import pytest

from repro.tlb import (
    HierarchySpec,
    TLBConfig,
    TLBKind,
    make_hierarchy,
    make_tlb,
)
from repro.tlb.base import BaseTLB, IdentityTranslator
from repro.tlb.entry import TLBEntry

VICTIM_ASID = 1
OTHER_ASID = 2

KINDS = ("SA", "FA", "SP", "RF")


def build(kind: str) -> BaseTLB:
    """One instance per organization under a 32-entry budget."""
    if kind == "FA":
        return make_tlb(TLBKind.SA, TLBConfig(entries=32, ways=32))
    config = TLBConfig(entries=32, ways=8)
    if kind == "SA":
        return make_tlb(TLBKind.SA, config)
    if kind == "SP":
        return make_tlb(
            TLBKind.SP, config, victim_asid=VICTIM_ASID, victim_ways=4
        )
    if kind == "RF":
        tlb = make_tlb(
            TLBKind.RF, config, victim_asid=VICTIM_ASID, rng=random.Random(7)
        )
        tlb.set_secure_region(0x100, 8, victim_asid=VICTIM_ASID)
        return tlb
    raise AssertionError(kind)


def fill_ways(kind: str, tlb: BaseTLB, asid: int) -> int:
    """How many ways ``asid`` may occupy in one set."""
    if kind == "SP":
        return tlb.victim_ways if asid == VICTIM_ASID else (
            tlb.config.ways - tlb.victim_ways
        )
    return tlb.config.ways


@pytest.mark.parametrize("kind", KINDS)
def test_occupancy_never_exceeds_capacity(kind: str) -> None:
    tlb = build(kind)
    translator = IdentityTranslator()
    rng = random.Random(2019)
    capacity = tlb.config.entries
    for _ in range(10 * capacity):
        vpn = rng.randrange(0x800)
        asid = rng.choice((VICTIM_ASID, OTHER_ASID, 3))
        tlb.translate(vpn, asid, translator)
        occupancy = tlb.occupancy()
        assert 0 <= occupancy <= capacity
    assert len(tlb.entries()) == tlb.occupancy()


@pytest.mark.parametrize("kind", KINDS)
def test_flush_asid_is_surgical(kind: str) -> None:
    """``flush_asid`` removes exactly the named process's entries."""
    tlb = build(kind)
    translator = IdentityTranslator()
    victim_pages = [0x200 + i for i in range(3)]
    other_pages = [0x300 + i for i in range(3)]
    for vpn in victim_pages:
        tlb.translate(vpn, VICTIM_ASID, translator)
    for vpn in other_pages:
        tlb.translate(vpn, OTHER_ASID, translator)

    tlb.flush_asid(VICTIM_ASID)

    assert not any(entry.asid == VICTIM_ASID for entry in tlb.entries())
    for vpn in victim_pages:
        assert not tlb.resident(vpn, VICTIM_ASID)
    for vpn in other_pages:
        assert tlb.resident(vpn, OTHER_ASID)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("asid", (VICTIM_ASID, OTHER_ASID))
def test_lru_evicts_least_recently_used(kind: str, asid: str) -> None:
    """Over one full set, the fill victim is the least-recently-used way.

    The RF TLB only randomizes fills that touch the secure region; the
    pages used here stay outside it, exercising its standard LRU path.
    """
    tlb = build(kind)
    translator = IdentityTranslator()
    nsets = tlb.config.sets
    ways = fill_ways(kind, tlb, asid)
    # Pages all mapping to set 0, outside the RF secure region.
    pages = [0x400 + i * nsets for i in range(ways)]
    for vpn in pages:
        tlb.translate(vpn, asid, translator)
    lru = pages[1]
    for vpn in pages:
        if vpn != lru:
            assert tlb.translate(vpn, asid, translator).hit
    result = tlb.translate(0x400 + ways * nsets, asid, translator)
    assert result.miss
    assert result.evicted is not None
    assert result.evicted.vpn == lru
    assert not tlb.resident(lru, asid)


@pytest.mark.parametrize("kind", KINDS)
def test_entries_returns_isolated_snapshots(kind: str) -> None:
    """Mutating an inspected entry must not corrupt live TLB state."""
    tlb = build(kind)
    translator = IdentityTranslator()
    tlb.translate(0x210, VICTIM_ASID, translator)
    snapshot = tlb.entries()[0]
    snapshot.invalidate()
    snapshot.vpn = 0xDEAD
    assert tlb.resident(0x210, VICTIM_ASID)
    assert tlb.occupancy() == 1


def test_entry_snapshot_isolation() -> None:
    entry = TLBEntry()
    entry.fill(vpn=0x21, ppn=0x42, asid=3, now=5, sec=True)
    copy = entry.snapshot()
    entry.invalidate()
    entry.vpn = 0
    assert copy.valid and copy.sec
    assert (copy.vpn, copy.ppn, copy.asid) == (0x21, 0x42, 3)


def test_stats_snapshot_isolation() -> None:
    tlb = build("SA")
    translator = IdentityTranslator()
    tlb.translate(0x1, 1, translator)
    before = tlb.stats.snapshot()
    tlb.translate(0x2, 1, translator)
    tlb.translate(0x1, 1, translator)
    assert before.accesses == 1 and before.misses == 1
    assert tlb.stats.accesses == 3 and tlb.stats.hits == 1
    before.misses_by_asid[9] = 99
    assert 9 not in tlb.stats.misses_by_asid


# -- two-level hierarchy flush/sfence invariants --------------------------------


def build_hierarchy(l1_kind: str = "SA", l2_kind: str = "SA"):
    """A small L1 over a bigger L2 so L1 evictions leave L2 residue."""
    spec = HierarchySpec.two_level(
        l1_kind,
        l2_kind,
        TLBConfig(entries=4, ways=2),
        TLBConfig(entries=32, ways=8),
    )
    return make_hierarchy(spec, victim_asid=VICTIM_ASID, rng=random.Random(7))


def spill_l1(tlb, translator, asid: int) -> int:
    """Touch enough same-set pages that one falls out of the L1 only."""
    nsets = tlb.l1.config.sets
    pages = [0x200 + i * nsets for i in range(tlb.l1.config.ways + 1)]
    for vpn in pages:
        tlb.translate(vpn, asid, translator)
    spilled = pages[0]
    assert not tlb.l1.resident(spilled, asid)
    assert tlb.l2.resident(spilled, asid)
    return spilled


def test_hierarchy_flush_all_clears_both_levels() -> None:
    tlb = build_hierarchy()
    translator = IdentityTranslator()
    spill_l1(tlb, translator, VICTIM_ASID)
    tlb.flush_all()
    assert tlb.l1.occupancy() == 0
    assert tlb.l2.occupancy() == 0


def test_hierarchy_flush_asid_is_surgical_in_both_levels() -> None:
    tlb = build_hierarchy()
    translator = IdentityTranslator()
    spilled = spill_l1(tlb, translator, VICTIM_ASID)
    tlb.translate(0x300, OTHER_ASID, translator)

    tlb.flush_asid(VICTIM_ASID)

    assert not tlb.resident(spilled, VICTIM_ASID)
    for level in (tlb.l1, tlb.l2):
        assert not any(
            entry.asid == VICTIM_ASID for entry in level.entries()
        )
    assert tlb.resident(0x300, OTHER_ASID)


def test_hierarchy_invalidate_page_reaches_an_l2_only_entry() -> None:
    """The page evicted from the L1 still hits the invalidation in the L2."""
    tlb = build_hierarchy()
    translator = IdentityTranslator()
    spilled = spill_l1(tlb, translator, VICTIM_ASID)

    result = tlb.invalidate_page(spilled, VICTIM_ASID)

    assert result.hit
    assert not tlb.resident(spilled, VICTIM_ASID)
    # A second invalidation finds nothing in either level.
    assert tlb.invalidate_page(spilled, VICTIM_ASID).miss


def test_hierarchy_sfence_vma_flushes_both_levels() -> None:
    """A bare ``sfence.vma`` through the CPU empties the whole hierarchy."""
    from repro.isa import assemble
    from repro.isa.cpu import CPU
    from repro.mmu import make_walker

    tlb = build_hierarchy()
    cpu = CPU(tlb=tlb, translator=make_walker())
    cpu.load(
        assemble(
            "    la x1, v\n"
            "    ld x2, 0(x1)\n"
            "    sfence.vma\n"
            "    halt\n"
            "    .data\n"
            "v: .dword 5\n"
        )
    )
    cpu.run()
    assert cpu.registers[2] == 5
    assert tlb.l1.occupancy() == 0
    assert tlb.l2.occupancy() == 0


def test_hierarchy_targeted_sfence_leaves_other_pages_resident() -> None:
    """``sfence.vma rs1`` invalidates one page in both levels, no more."""
    from repro.isa import assemble
    from repro.isa.cpu import CPU
    from repro.mmu import make_walker

    tlb = build_hierarchy()
    cpu = CPU(tlb=tlb, translator=make_walker())
    cpu.load(
        assemble(
            "    la x1, v\n"
            "    la x2, w\n"
            "    ld x3, 0(x1)\n"
            "    ld x4, 0(x2)\n"
            "    sfence.vma x1\n"
            "    halt\n"
            "    .data\n"
            "    .org 0x4000\n"
            "v: .dword 5\n"
            "    .org 0x5000\n"
            "w: .dword 6\n"
        )
    )
    cpu.run()
    asid = cpu.asid
    assert not tlb.resident(0x4, asid)
    assert tlb.resident(0x5, asid)


def test_hierarchy_protected_l1_flushes_still_reach_the_l2() -> None:
    """An RF L1 over a standard L2: flushes must clear the L2 footprint
    (the L2 residue is exactly what the hierarchy ablation attacks)."""
    tlb = build_hierarchy("RF", "SA")
    tlb.set_secure_region(0x200, 8, victim_asid=VICTIM_ASID)
    translator = IdentityTranslator()
    tlb.translate(0x201, VICTIM_ASID, translator)
    assert tlb.l2.resident(0x201, VICTIM_ASID)

    tlb.flush_asid(VICTIM_ASID)

    assert not tlb.l2.resident(0x201, VICTIM_ASID)
    assert not tlb.resident(0x201, VICTIM_ASID)


# -- N-level propagation invariants ---------------------------------------------
#
# The maintenance contract generalises past two levels: every
# ``invalidate_page`` / ``flush_asid`` / ``set_secure_region`` issued at
# the hierarchy facade must reach every level (and the page-walk cache),
# or a stale translation survives exactly where the paper's maintenance
# analysis assumes it cannot.


def build_deep_hierarchy():
    """Three levels plus a PWC, RF innermost so secure regions matter."""
    from repro.tlb import LevelSpec, PWCSpec

    spec = HierarchySpec(
        levels=(
            LevelSpec(kind="SA", sets=2, ways=2),
            LevelSpec(kind="SP", sets=4, ways=4, hit_latency=8),
            LevelSpec(kind="RF", sets=8, ways=8, hit_latency=20),
        ),
        pwc=PWCSpec(entries=8),
    )
    return make_hierarchy(
        spec, victim_asid=VICTIM_ASID, rng=random.Random(11)
    )


def test_deep_invalidate_page_reaches_every_level_and_the_pwc() -> None:
    tlb = build_deep_hierarchy()
    translator = IdentityTranslator()
    tlb.translate(0x210, VICTIM_ASID, translator)
    for level in tlb.levels:
        assert level.resident(0x210, VICTIM_ASID)
    assert tlb.pwc.occupancy() == 1

    assert tlb.invalidate_page(0x210, VICTIM_ASID).hit

    for level in tlb.levels:
        assert not level.resident(0x210, VICTIM_ASID)
    assert tlb.pwc.occupancy() == 0
    assert tlb.invalidate_page(0x210, VICTIM_ASID).miss


def test_deep_flush_asid_is_surgical_in_every_level() -> None:
    tlb = build_deep_hierarchy()
    translator = IdentityTranslator()
    tlb.translate(0x210, VICTIM_ASID, translator)
    tlb.translate(0x300, OTHER_ASID, translator)

    tlb.flush_asid(VICTIM_ASID)

    for level in tlb.levels:
        assert not any(
            entry.asid == VICTIM_ASID for entry in level.entries()
        )
    assert tlb.resident(0x300, OTHER_ASID)
    assert tlb.pwc.occupancy() == 1  # the other ASID's walk survives


def test_deep_flush_all_empties_every_level_and_the_pwc() -> None:
    tlb = build_deep_hierarchy()
    translator = IdentityTranslator()
    tlb.translate(0x210, VICTIM_ASID, translator)
    tlb.translate(0x300, OTHER_ASID, translator)

    tlb.flush_all()

    for level in tlb.levels:
        assert level.occupancy() == 0
    assert tlb.pwc.occupancy() == 0


def test_deep_secure_region_reaches_every_rf_level() -> None:
    tlb = build_deep_hierarchy()
    tlb.set_secure_region(0x100, 8, victim_asid=VICTIM_ASID)
    assert tlb.levels[2].is_secure(0x101, VICTIM_ASID)
