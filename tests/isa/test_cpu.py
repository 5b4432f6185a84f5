"""Tests for the in-order CPU: semantics, timing, CSRs, TLB interaction."""

import pytest

from repro.isa import (
    CPU,
    CSRError,
    ExecutionLimitExceeded,
    ExecutionStatus,
    Memory,
    assemble,
)
from repro.mmu import PageTableWalker
from repro.tlb import RandomFillTLB, SetAssociativeTLB, TLBConfig


def make_cpu(tlb=None):
    tlb = tlb or SetAssociativeTLB(TLBConfig(entries=8, ways=2))
    walker = PageTableWalker(auto_map=True)
    return CPU(tlb=tlb, translator=walker, memory=Memory()), tlb, walker


def run(source, tlb=None, max_steps=100_000):
    cpu, tlb, walker = make_cpu(tlb)
    cpu.load(assemble(source))
    result = cpu.run(max_steps=max_steps)
    return cpu, result


class TestArithmeticAndControl:
    def test_arithmetic(self):
        cpu, result = run(
            """
            li x1, 10
            li x2, 3
            add x3, x1, x2
            sub x4, x1, x2
            addi x5, x1, -4
            slli x6, x2, 4
            halt
            """
        )
        assert cpu.registers[3] == 13
        assert cpu.registers[4] == 7
        assert cpu.registers[5] == 6
        assert cpu.registers[6] == 48
        assert result.status is ExecutionStatus.HALTED

    def test_x0_is_hardwired_zero(self):
        cpu, _ = run("li x0, 5\naddi x0, x0, 1\nhalt")
        assert cpu.registers[0] == 0

    def test_loop_with_branch(self):
        cpu, result = run(
            """
            li x1, 0
            li x2, 5
            loop:
            addi x1, x1, 1
            bne x1, x2, loop
            halt
            """
        )
        assert cpu.registers[1] == 5
        assert result.instructions == 2 + 2 * 5 + 1

    def test_signed_branches(self):
        cpu, _ = run(
            """
            li x1, -1
            li x2, 1
            blt x1, x2, ok
            li x3, 99
            ok:
            bge x2, x1, done
            li x4, 99
            done:
            halt
            """
        )
        assert cpu.registers[3] == 0
        assert cpu.registers[4] == 0

    def test_fall_off_end_halts(self):
        cpu, result = run("li x1, 1")
        assert result.status is ExecutionStatus.HALTED

    def test_pass_and_fail_markers(self):
        assert run("pass")[1].status is ExecutionStatus.PASSED
        assert run("fail")[1].status is ExecutionStatus.FAILED

    def test_infinite_loop_hits_step_budget(self):
        with pytest.raises(ExecutionLimitExceeded):
            run("spin:\nj spin", max_steps=100)


class TestMemoryAndData:
    def test_load_reads_data_image(self):
        cpu, _ = run(
            """
            la x1, values
            ldnorm x2, 0(x1)
            ldnorm x3, 8(x1)
            halt
            .data
            values: .dword 41, 42
            """
        )
        assert cpu.registers[2] == 41
        assert cpu.registers[3] == 42

    def test_store_then_load(self):
        cpu, _ = run(
            """
            la x1, buf
            li x2, 1234
            sd x2, 0(x1)
            ld x3, 0(x1)
            halt
            .data
            buf: .dword 0
            """
        )
        assert cpu.registers[3] == 1234

    def test_ldrand_is_a_load(self):
        cpu, _ = run(
            """
            la x1, v
            ldrand x2, 0(x1)
            halt
            .data
            v: .dword 7
            """
        )
        assert cpu.registers[2] == 7


class TestTiming:
    def test_miss_then_hit_timing(self):
        source = """
        la x1, v
        ldnorm x2, 0(x1)
        csrr x3, cycle
        ldnorm x2, 0(x1)
        csrr x4, cycle
        halt
        .data
        v: .dword 1
        """
        cpu, _ = run(source)
        # Second load is a hit: 1 cycle for it + 1 for the csrr in between.
        assert cpu.registers[4] - cpu.registers[3] == 2

    def test_first_load_pays_walk(self):
        cpu, tlb, walker = make_cpu()
        cpu.load(assemble("la x1, v\nldnorm x2, 0(x1)\nhalt\n.data\nv: .dword 1"))
        cpu.run()
        # la(1) + load(1 + 30 walk) + halt(1).
        assert cpu.cycles == 1 + 31 + 1

    def test_instret_counts_instructions(self):
        cpu, result = run("nop\nnop\nnop\nhalt")
        assert result.instructions == 4
        assert result.ipc == pytest.approx(4 / cpu.cycles)


class TestCSRs:
    def test_tlb_miss_counter_visible(self):
        cpu, _ = run(
            """
            la x1, v
            csrr x3, tlb_miss_count
            ldnorm x2, 0(x1)
            csrr x4, tlb_miss_count
            ldnorm x2, 0(x1)
            csrr x5, tlb_miss_count
            halt
            .data
            v: .dword 1
            """
        )
        assert cpu.registers[4] - cpu.registers[3] == 1  # miss
        assert cpu.registers[5] - cpu.registers[4] == 0  # hit

    def test_process_id_switch_changes_tagging(self):
        cpu, _ = run(
            """
            la x1, v
            ldnorm x2, 0(x1)        # asid 1 fill
            csrw process_id, 2
            csrr x3, tlb_miss_count
            ldnorm x2, 0(x1)        # asid 2: same vpn, must miss
            csrr x4, tlb_miss_count
            halt
            .data
            v: .dword 1
            """
        )
        assert cpu.registers[4] - cpu.registers[3] == 1

    def test_secure_region_csrs_program_rf_tlb(self):
        tlb = RandomFillTLB(TLBConfig(entries=32, ways=8), victim_asid=1)
        cpu, tlb, _walker = make_cpu(tlb)
        cpu.load(assemble("csrw sbase, 100\ncsrw ssize, 3\nhalt"))
        cpu.run()
        assert tlb.sbase == 100 and tlb.ssize == 3
        assert tlb.is_secure(101, 1)

    def test_counter_csrs_are_read_only(self):
        cpu, _tlb, _walker = make_cpu()
        cpu.load(assemble("csrw cycle, 5\nhalt"))
        with pytest.raises(CSRError):
            cpu.run()

    def test_unknown_csr_rejected_at_runtime(self):
        cpu, _tlb, _walker = make_cpu()
        cpu.load(assemble("csrr x1, bogus_csr\nhalt"))
        with pytest.raises(CSRError):
            cpu.run()


class TestRewind:
    SOURCE = """
        la x1, buf
        ld x3, 0(x1)
        li x2, 1234
        sd x2, 0(x1)
        csrw sbase, 100
        csrw ssize, 3
        csrw process_id, 0
        la x4, far
        ld x5, 0(x4)
        halt
        .data
        buf: .dword 7
        .org 0x400000
        far: .dword 0
    """

    @staticmethod
    def buf(cpu, walker):
        vaddr = cpu.registers[1]
        return walker.peek(vaddr >> 12, 1) * 4096 + vaddr % 4096

    def observe(self, cpu, tlb, walker):
        return (
            list(cpu.registers),
            cpu.pc,
            cpu.cycles,
            cpu.instructions_retired,
            cpu.asid,
            cpu.mem.current_asid,
            (cpu.csr.read("sbase"), cpu.csr.read("ssize")),
            (tlb.sbase, tlb.ssize),
            tlb.entries(),
            tlb.stats.snapshot(),
            walker.walks,
            walker.peek(0x400, 0),
            len(cpu.memory),
            cpu.memory.load(self.buf(cpu, walker)),
        )

    def test_rewind_undoes_stores_csr_writes_and_new_mappings(self):
        tlb = RandomFillTLB(TLBConfig(entries=32, ways=8), victim_asid=1)
        cpu, tlb, walker = make_cpu(tlb)
        cpu.load(assemble(self.SOURCE))
        cpu.step()
        cpu.step()
        start = cpu.checkpoint()
        before = self.observe(cpu, tlb, walker)
        first = cpu.run()
        assert walker.peek(0x400, 0) is not None
        cpu.rewind(start)
        assert self.observe(cpu, tlb, walker) == before
        assert cpu.memory.load(self.buf(cpu, walker)) == 7
        assert cpu.run() == first
        assert cpu.registers[2] == 1234

class TestSfence:
    def test_full_flush(self):
        cpu, tlb, walker = make_cpu()
        cpu.load(
            assemble(
                """
                la x1, v
                ldnorm x2, 0(x1)
                sfence.vma
                csrr x3, tlb_miss_count
                ldnorm x2, 0(x1)
                csrr x4, tlb_miss_count
                halt
                .data
                v: .dword 1
                """
            )
        )
        cpu.run()
        assert cpu.registers[4] - cpu.registers[3] == 1

    def test_targeted_invalidation_timing(self):
        # Appendix B: sfence of a present page costs one extra cycle.
        source = """
        la x1, v
        ldnorm x2, 0(x1)
        csrr x3, cycle
        sfence.vma x1
        csrr x4, cycle
        sfence.vma x1
        csrr x5, cycle
        halt
        .data
        v: .dword 1
        """
        cpu, _ = run(source)
        present = cpu.registers[4] - cpu.registers[3]
        absent = cpu.registers[5] - cpu.registers[4]
        assert present == absent + 1


class TestBitwiseOps:
    def test_logic_instructions(self):
        cpu, _ = run(
            """
            li x1, 0b1100
            li x2, 0b1010
            and x3, x1, x2
            or x4, x1, x2
            xor x5, x1, x2
            andi x6, x1, 0b0110
            ori x7, x1, 0b0001
            xori x8, x1, 0b1111
            srli x9, x1, 2
            halt
            """
        )
        assert cpu.registers[3] == 0b1000
        assert cpu.registers[4] == 0b1110
        assert cpu.registers[5] == 0b0110
        assert cpu.registers[6] == 0b0100
        assert cpu.registers[7] == 0b1101
        assert cpu.registers[8] == 0b0011
        assert cpu.registers[9] == 0b0011

    def test_mv_and_j(self):
        cpu, _ = run(
            """
            li x1, 9
            mv x2, x1
            j skip
            li x2, 0
            skip:
            halt
            """
        )
        assert cpu.registers[2] == 9

    def test_sixty_four_bit_wraparound(self):
        cpu, _ = run(
            """
            li x1, -1
            addi x2, x1, 1
            halt
            """
        )
        assert cpu.registers[1] == (1 << 64) - 1
        assert cpu.registers[2] == 0
