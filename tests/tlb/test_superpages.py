"""Property tests for mixed 4 KiB / superpage TLB behaviour."""

from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.mmu import PageTable, PageTableWalker
from repro.tlb import SetAssociativeTLB, TLBConfig

SUPER_SPAN = 512  # pages per level-1 megapage


def make_mixed_walker(super_bases, small_pages):
    walker = PageTableWalker(auto_map=False)
    table = PageTable(asid=1)
    for index, base in enumerate(sorted(super_bases)):
        table.map_page(base, (index + 1) * SUPER_SPAN * 4, level=1)
    for index, vpn in enumerate(sorted(small_pages)):
        table.map_page(vpn, 0x900_000 + index)
    walker.register(table)
    return walker


super_base_sets = st.sets(
    st.integers(min_value=0, max_value=30).map(lambda i: i * SUPER_SPAN),
    min_size=1,
    max_size=3,
)
offsets = st.lists(
    st.integers(min_value=0, max_value=SUPER_SPAN - 1), min_size=1, max_size=20
)


class TestMixedPageSizes:
    @given(super_base_sets, offsets)
    @settings(max_examples=50, deadline=None)
    def test_one_entry_serves_a_whole_superpage(self, bases, offsets):
        walker = make_mixed_walker(bases, small_pages=[])
        tlb = SetAssociativeTLB(TLBConfig(entries=32, ways=8))
        base = min(bases)
        for offset in offsets:
            tlb.translate(base + offset, 1, walker)
        # All accesses to one superpage share a single entry.
        assert tlb.occupancy() == 1

    @given(super_base_sets, offsets)
    @settings(max_examples=50, deadline=None)
    def test_translation_is_offset_correct(self, bases, offsets):
        walker = make_mixed_walker(bases, small_pages=[])
        tlb = SetAssociativeTLB(TLBConfig(entries=32, ways=8))
        for base in sorted(bases):
            expected_base = walker.walk(base, 1).ppn
            for offset in offsets:
                result = tlb.translate(base + offset, 1, walker)
                assert result.ppn == expected_base + offset

    @given(offsets)
    @settings(max_examples=50, deadline=None)
    def test_small_and_super_entries_coexist(self, offsets):
        small_pages = [SUPER_SPAN + o for o in offsets]  # second region, 4 KiB
        config = TLBConfig(entries=64, ways=8)
        # Coexistence only holds while every set has room: the megapage
        # takes one way of its set, the small pages the rest.
        per_set = Counter(config.set_index(vpn) for vpn in set(small_pages))
        super_set = config.set_index_for_level(5, 1)
        assume(per_set[super_set] <= config.ways - 1)
        assume(all(count <= config.ways for count in per_set.values()))
        walker = make_mixed_walker({0}, small_pages)
        tlb = SetAssociativeTLB(config)
        for vpn in small_pages:
            tlb.translate(vpn, 1, walker)
        tlb.translate(5, 1, walker)  # inside the superpage
        assert tlb.translate(5, 1, walker).hit
        for vpn in small_pages:
            assert tlb.resident(vpn, 1)

    def test_megapage_fill_evicts_the_lru_small_page_of_a_full_set(self):
        # Eight small pages fill all eight ways of set 0, the megapage's
        # set; its fill must evict the least recently used one, 0x200.
        small_pages = [SUPER_SPAN + o for o in (0, 8, 16, 24, 32, 40, 56, 80)]
        walker = make_mixed_walker({0}, small_pages)
        tlb = SetAssociativeTLB(TLBConfig(entries=64, ways=8))
        for vpn in small_pages:
            tlb.translate(vpn, 1, walker)
        tlb.translate(5, 1, walker)  # inside the superpage
        assert tlb.translate(5, 1, walker).hit
        evicted = [vpn for vpn in small_pages if not tlb.resident(vpn, 1)]
        assert evicted == [0x200]

    def test_superpage_and_small_page_hits_do_not_alias(self):
        # A 4 KiB entry must not answer for a different page of the same
        # superpage-sized region, and vice versa.
        walker = make_mixed_walker(set(), [SUPER_SPAN + 1])
        tlb = SetAssociativeTLB(TLBConfig(entries=32, ways=8))
        tlb.translate(SUPER_SPAN + 1, 1, walker)
        from repro.mmu import PageFault

        with pytest.raises(PageFault):
            tlb.translate(SUPER_SPAN + 2, 1, walker)  # unmapped 4 KiB page
