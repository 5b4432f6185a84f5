"""Property-based fuzzing of the benchmark generator.

For random vulnerabilities, layouts and trial kinds, the generated program
must assemble, terminate with a PASS/FAIL verdict on every design, and
touch only the pages its data section declares.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.isa import CPU, ExecutionStatus, assemble
from repro.model.extended import derive_extended_vulnerabilities
from repro.mmu import PageTableWalker
from repro.security import TLBKind, generate, make_tlb
from repro.security.benchgen import BenchmarkLayout
from repro.tlb import TLBConfig

ALL_VULNERABILITIES = derive_extended_vulnerabilities()  # base 24 + 48

vulnerabilities = st.sampled_from(ALL_VULNERABILITIES)
kinds = st.sampled_from([TLBKind.SA, TLBKind.SP, TLBKind.RF])
geometries = st.sampled_from([(32, 8), (32, 4), (16, 4), (64, 8)])


class TestGeneratedProgramProperties:
    @given(vulnerabilities, kinds, st.booleans(), st.integers(0, 5))
    @settings(max_examples=120, deadline=None)
    def test_programs_run_to_a_verdict(self, vulnerability, kind, mapped, seed):
        config = TLBConfig(entries=32, ways=8)
        from repro.security import layout_for_spec
        from repro.tlb import HierarchySpec

        layout = layout_for_spec(
            HierarchySpec.flat(kind.value, config), partitioned_primes=True
        )
        program = assemble(generate(vulnerability, layout, mapped=mapped))
        tlb = make_tlb(
            kind,
            config,
            victim_ways=4 if kind is TLBKind.SP else None,
            rng=random.Random(seed),
        )
        cpu = CPU(tlb=tlb, translator=PageTableWalker(auto_map=True))
        cpu.load(program)
        result = cpu.run(max_steps=10_000)
        assert result.status in (ExecutionStatus.PASSED, ExecutionStatus.FAILED)
        # a0 carries the probe's measurement (non-negative).
        assert cpu.registers[10] < (1 << 63)

    @given(vulnerabilities, geometries, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_programs_only_touch_declared_pages(
        self, vulnerability, geometry, mapped
    ):
        entries, ways = geometry
        config = TLBConfig(entries=entries, ways=ways)
        from dataclasses import replace

        layout = replace(
            BenchmarkLayout(),
            nsets=config.sets,
            nways=config.ways,
            prime_ways_victim=config.ways,
            prime_ways_attacker=config.ways,
        )
        program = assemble(generate(vulnerability, layout, mapped=mapped))
        declared = {address >> 12 for address in program.symbols.values()}

        tlb = make_tlb(TLBKind.SA, config)
        walker = PageTableWalker(auto_map=True)
        cpu = CPU(tlb=tlb, translator=walker)
        cpu.load(program)
        cpu.run(max_steps=10_000)
        touched = {entry.vpn for entry in tlb.entries()}
        assert touched <= declared

    @given(vulnerabilities, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_generation_is_deterministic(self, vulnerability, mapped):
        first = generate(vulnerability, mapped=mapped)
        second = generate(vulnerability, mapped=mapped)
        assert first == second
