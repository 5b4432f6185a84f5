"""Tests for the micro security benchmark generator (Section 5.1)."""

import dataclasses
import hashlib

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
from repro.model.extended import invalidation_only_vulnerabilities
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
from repro.security.benchgen import Op, expand
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


def experiment_layouts():
    """Every distinct layout the experiments and the certify gate build.

    The Table 4, hierarchy study, sweep, mitigation and leakage designs,
    with and without partition-sized primes, plus the default layout the
    large-page ablation uses.
    """
    from repro.ablations.hierarchy import leakage_spec, study_spec, sweep_specs
    from repro.ablations.mitigations import MITIGATION_SPECS
    from repro.security import TLBKind
    from repro.security.evaluate import table4_spec

    specs = [table4_spec(kind) for kind in TLBKind]
    specs += [study_spec(l1, l2) for l1 in TLBKind for l2 in TLBKind]
    specs += sweep_specs()
    specs += [rung.design() for rung in MITIGATION_SPECS]
    specs.append(leakage_spec())
    layouts = {
        layout_for_spec(spec, partitioned)
        for spec in specs
        for partitioned in (False, True)
    }
    layouts.add(BenchmarkLayout())
    return sorted(layouts, key=dataclasses.astuple)


#: ``ssize`` at its per-row default and at every region-sweep size.
REGION_SIZES = (None, 1, 2, 3, 8, 16, 31)

#: SHA-256 over every program :class:`TestProgramPin` generates, in order.
PROGRAMS_SHA256 = (
    "1faf165293020b8d1f41f89a3c248c23f08008c2927c96e04662566ea2824de2"
)


class TestProgramPin:
    """Every program the evaluation can generate, pinned byte for byte.

    The Table 2 and Table 7 rows, mapped and unmapped, at every region
    size the experiments use, on every distinct layout: 5,040 programs.
    A change to how a benchmark is expanded or rendered moves the digest.
    """

    def test_every_generated_program_is_pinned(self):
        layouts = experiment_layouts()
        assert len(layouts) == 5
        rows = table2_vulnerabilities() + invalidation_only_vulnerabilities()
        assert len(rows) == 72
        digest = hashlib.sha256()
        for layout in layouts:
            for vulnerability in rows:
                for mapped in (True, False):
                    for ssize in REGION_SIZES:
                        program = generate(vulnerability, layout, mapped, ssize)
                        digest.update(program.encode())
        assert digest.hexdigest() == PROGRAMS_SHA256


class TestExpansion:
    @pytest.mark.parametrize(
        "vulnerability", table2_vulnerabilities(), ids=lambda v: v.pretty()
    )
    def test_ops_follow_the_three_steps_in_order(self, vulnerability):
        ssize = region_size_for(vulnerability)
        for mapped in (True, False):
            steps = [
                op.step
                for op in expand(vulnerability, BenchmarkLayout(), mapped, ssize)
            ]
            assert steps == sorted(steps)
            assert set(steps) == {0, 1, 2}

    def test_pages_stay_inside_the_layout_region(self):
        layout = BenchmarkLayout(nsets=16)
        for vulnerability in table2_vulnerabilities():
            ssize = region_size_for(vulnerability)
            for mapped in (True, False):
                for op in expand(vulnerability, layout, mapped, ssize):
                    if op.kind == "access":
                        assert 0 < op.vpn < 0x10000


def rendered_ops(program):
    """The ops a program performs, read back from its loads and fences."""
    ops = []
    pid = step = vpn = owner = None
    for line in program.splitlines():
        if line == ".data":
            break
        if line.startswith("# step "):
            step = int(line.split()[2].rstrip(":")) - 1
        elif line.startswith("csrw process_id, "):
            pid = int(line.split(", ")[1])
        elif line.startswith("la x1, page_"):
            vpn = int(line[len("la x1, page_"):], 16)
        elif line.startswith("li x7, "):
            owner = int(line.split(", ")[1])
        elif line.startswith(("ldnorm ", "ldrand ")):
            ops.append(Op("access", pid, vpn, step=step))
        elif line == "sfence.vma":
            ops.append(Op("sfence_all", pid, step=step))
        elif line == "sfence.vma x1, x7":
            ops.append(Op("sfence_page", pid, vpn, owner, step))
        else:
            assert line.startswith(("#", "csr", "sub ", "addi ", "beq ")) or (
                line in ("pass", "fast_path:", "fail")
            ), f"unexpected line {line!r}"
    return ops


class TestRendering:
    def test_each_program_performs_exactly_the_expanded_ops(self):
        rows = table2_vulnerabilities() + invalidation_only_vulnerabilities()
        for layout in experiment_layouts():
            for vulnerability in rows:
                for mapped in (True, False):
                    for size in REGION_SIZES:
                        ssize = size or region_size_for(vulnerability)
                        program = generate(vulnerability, layout, mapped, size)
                        assert rendered_ops(program) == expand(
                            vulnerability, layout, mapped, ssize
                        ), (vulnerability.pretty(), layout, mapped, size)
