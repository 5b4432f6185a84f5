"""Tests for the micro security benchmark generator (Section 5.1)."""

import pytest

from repro.isa import assemble
from repro.model.patterns import Observation, ThreeStepPattern, Vulnerability
from repro.model.states import (
    A_A,
    A_A_ALIAS,
    A_D,
    A_INV,
    V_A,
    V_U,
)
from repro.model.table2 import table2_vulnerabilities
from repro.security import (
    BenchmarkLayout,
    alias_page,
    TABLE4_TLB,
    generate,
    layout_for_spec,
    region_size_for,
    secret_page,
)
from repro.tlb import HierarchySpec


def vuln(s1, s2, s3, obs):
    return Vulnerability(ThreeStepPattern((s1, s2, s3)), obs)


PRIME_PROBE = vuln(A_D, V_U, A_D, Observation.SLOW)
INTERNAL_COLLISION = vuln(A_D, V_U, V_A, Observation.FAST)
EVICT_TIME = vuln(V_U, A_D, V_U, Observation.SLOW)
BERNSTEIN_A = vuln(V_A, V_U, V_A, Observation.SLOW)


class TestRegionSize:
    def test_small_region_for_d_patterns(self):
        assert region_size_for(PRIME_PROBE) == 3
        assert region_size_for(INTERNAL_COLLISION) == 3
        assert region_size_for(EVICT_TIME) == 3

    def test_large_region_for_in_range_primes(self):
        assert region_size_for(BERNSTEIN_A) == 31
        assert region_size_for(vuln(A_A_ALIAS, V_U, V_A, Observation.FAST)) == 31
        assert region_size_for(vuln(V_U, A_A, V_U, Observation.SLOW)) == 31

    def test_paper_split_over_table2(self):
        sizes = [region_size_for(v) for v in table2_vulnerabilities()]
        # 10 rows involve a/alias in Steps 1-2 (the 31-page scenario);
        # the other 14 use the 3-page region.
        assert sizes.count(31) == 10
        assert sizes.count(3) == 14


class TestSecretPlacement:
    def test_collision_rows_use_u_equals_a(self):
        layout = BenchmarkLayout()
        assert (
            secret_page(INTERNAL_COLLISION, layout, mapped=True, ssize=3)
            == layout.sbase
        )

    def test_eviction_rows_use_same_set_distinct_page(self):
        layout = BenchmarkLayout()
        u = secret_page(BERNSTEIN_A, layout, mapped=True, ssize=31)
        assert u != layout.sbase
        assert u != alias_page(layout)
        assert u % layout.nsets == layout.target_set

    def test_unmapped_secret_is_in_another_set(self):
        layout = BenchmarkLayout()
        for vulnerability in table2_vulnerabilities():
            ssize = region_size_for(vulnerability)
            u = secret_page(vulnerability, layout, mapped=False, ssize=ssize)
            assert u % layout.nsets != layout.target_set
            assert layout.sbase <= u < layout.sbase + ssize


class TestGeneratedPrograms:
    def test_every_table2_benchmark_assembles(self):
        for vulnerability in table2_vulnerabilities():
            for mapped in (True, False):
                program = assemble(generate(vulnerability, mapped=mapped))
                assert program.instructions

    def test_program_structure_prime_probe(self):
        text = generate(PRIME_PROBE, mapped=True)
        assert "csrw sbase," in text
        assert "csrw ssize, 3" in text
        assert "csrw process_id, 0" in text  # attacker
        assert "csrw process_id, 1" in text  # victim
        assert "csrr x5, tlb_miss_count" in text
        assert "pass" in text and "fail" in text
        # The prime and probe each touch nways pages.
        assert text.count("ldnorm") >= 2 * 8
        assert "ldrand" in text  # the secret access is in-region

    def test_hit_based_patterns_use_single_accesses(self):
        text = generate(INTERNAL_COLLISION, mapped=True)
        # Step 1 single d access + step 2 secret + step 3 reload = 3 loads.
        assert text.count("ld") - text.count("ldrand") <= 4

    def test_flush_steps_emit_sfence(self):
        text = generate(vuln(A_INV, V_U, V_A, Observation.FAST))
        assert "sfence.vma" in text

    def test_partitioned_layout_narrows_primes(self):
        sp = HierarchySpec.flat("SP", TABLE4_TLB)
        layout = layout_for_spec(sp, partitioned_primes=True)
        assert layout.prime_ways_victim == 4
        assert layout.prime_ways_attacker == 4
        text = generate(PRIME_PROBE, layout, mapped=True)
        # Prime (4) + probe (4) d-loads instead of 8 + 8.
        assert text.count("ldnorm") == 8

    def test_prime_excludes_the_secret_page(self):
        # Regression: priming u itself would pre-cache the translation
        # whose presence the attack infers, inverting the signal.
        layout = BenchmarkLayout()
        u = secret_page(BERNSTEIN_A, layout, mapped=True, ssize=31)
        text = generate(BERNSTEIN_A, layout, mapped=True)
        lines = text.splitlines()
        u_label = f"page_{u:x}"
        loads = [i for i, line in enumerate(lines) if f"la x1, {u_label}" in line]
        # The secret page is touched exactly twice: Step 2 and nowhere else
        # (Bernstein's Step 1 and Step 3 are the 'a' accesses).
        assert len(loads) == 1

    def test_mapped_and_unmapped_differ_only_in_u(self):
        mapped = generate(PRIME_PROBE, mapped=True)
        unmapped = generate(PRIME_PROBE, mapped=False)
        differing = [
            (a, b)
            for a, b in zip(mapped.splitlines(), unmapped.splitlines())
            if a != b
        ]
        # The u page label (in text and data) and the trial comment differ.
        assert 0 < len(differing) <= 4

    def test_data_pages_placed_on_their_own_pages(self):
        from repro.isa import assemble

        program = assemble(generate(PRIME_PROBE, mapped=True))
        addresses = sorted(program.symbols.values())
        vpns = [address >> 12 for address in addresses]
        assert len(vpns) == len(set(vpns))


class TestLayoutValidation:
    def test_bases_must_map_to_set_zero(self):
        with pytest.raises(ValueError):
            BenchmarkLayout(sbase=0x101)

    def test_bases_must_be_distinct(self):
        with pytest.raises(ValueError):
            BenchmarkLayout(sbase=0x100, dbase=0x100)

    def test_geometry_must_be_positive(self):
        with pytest.raises(ValueError):
            BenchmarkLayout(nsets=0)
