"""Failure-injection tests: the system must fail loudly, not silently."""

import pytest

from repro.isa import CPU, ExecutionLimitExceeded, assemble
from repro.mmu import PageFault, PageTable, PageTableWalker
from repro.tlb import SetAssociativeTLB, TLBConfig
from repro.tlb.base import WalkResult


class TestPageFaultPropagation:
    def test_unmapped_access_faults_through_the_whole_stack(self):
        # Without auto_map, a benchmark touching an unmapped page must
        # surface the PageFault (not fabricate a translation).
        walker = PageTableWalker()
        walker.register(PageTable(asid=1))
        cpu = CPU(
            tlb=SetAssociativeTLB(TLBConfig(entries=8, ways=2)),
            translator=walker,
        )
        program = assemble("li x1, 0x5000\nldnorm x2, 0(x1)\nhalt")
        cpu._program = program  # skip load(): the data image would fault
        cpu.pc = 0
        with pytest.raises(PageFault):
            cpu.run()

    def test_fault_does_not_corrupt_tlb_state(self):
        walker = PageTableWalker()
        table = PageTable(asid=1)
        table.map_page(0x1, 0xAA)
        walker.register(table)
        tlb = SetAssociativeTLB(TLBConfig(entries=8, ways=2))
        tlb.translate(0x1, 1, walker)
        with pytest.raises(PageFault):
            tlb.translate(0x2, 1, walker)
        # The mapped page's entry is intact; no phantom entry for 0x2.
        assert tlb.resident(0x1, 1)
        assert not tlb.resident(0x2, 1)
        # The failed access was still counted as a miss (the walk started).
        assert tlb.stats.misses == 2


class _FlakyTranslator:
    """A translator that fails on its first N walks."""

    def __init__(self, failures: int) -> None:
        self.remaining_failures = failures
        self.walks = 0

    def walk(self, vpn: int, asid: int) -> WalkResult:
        self.walks += 1
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise PageFault(vpn, asid)
        return WalkResult(ppn=vpn, cycles=30)


class TestTransientFailures:
    def test_retry_after_transient_fault_succeeds(self):
        tlb = SetAssociativeTLB(TLBConfig(entries=8, ways=2))
        translator = _FlakyTranslator(failures=1)
        with pytest.raises(PageFault):
            tlb.translate(0x5, 1, translator)
        result = tlb.translate(0x5, 1, translator)
        assert result.miss and result.ppn == 0x5
        assert tlb.translate(0x5, 1, translator).hit


class TestRunawayPrograms:
    def test_infinite_benchmark_is_bounded(self):
        walker = PageTableWalker(auto_map=True)
        cpu = CPU(
            tlb=SetAssociativeTLB(TLBConfig(entries=8, ways=2)),
            translator=walker,
        )
        cpu.load(assemble("loop:\nj loop"))
        with pytest.raises(ExecutionLimitExceeded):
            cpu.run(max_steps=500)
        # The budget was honoured, not overshot.
        assert cpu.instructions_retired == 500

    def test_evaluator_surfaces_runaway_trials(self):
        # A hostile/buggy benchmark must not hang the harness.
        from repro.security import (
            EvaluationConfig,
            SecurityEvaluator,
            TLBKind,
            table4_spec,
        )

        evaluator = SecurityEvaluator(EvaluationConfig(trials=1))
        program = assemble("spin:\nj spin")
        import random

        with pytest.raises(ExecutionLimitExceeded):
            evaluator.run_trial(
                program, table4_spec(TLBKind.SA), random.Random(0)
            )
