"""An in-order, cycle-approximate CPU for the benchmark dialect.

The model is deliberately simple -- the paper's security evaluation needs
only architecturally visible TLB behaviour and honest relative timing:

* every instruction costs one issue cycle;
* loads and stores go through the L1 D-TLB (instruction fetch is assumed to
  hit a perfect I-TLB; the paper's designs target the D-TLB, Section 4),
  paying the hit latency or the full page-table walk;
* ``sfence.vma`` with an address pays the presence-dependent invalidation
  timing of Appendix B.

The CPU tags memory operations with the ``process_id`` CSR, letting one
benchmark program play both the attacker and the victim exactly as the
generated tests of Figure 6 do, and exposes ``cycle``/``instret``/
``tlb_miss_count`` CSRs for the measurement steps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.mmu.os_model import SwitchPolicy
from repro.sim.events import EventBus
from repro.sim.system import MemorySystem
from repro.tlb.base import BaseTLB, Translator

from .assembler import Program
from .csr import CSRFile
from .instructions import Instruction
from .memory import Memory

PAGE_BITS = 12
PAGE_SIZE = 1 << PAGE_BITS
MASK64 = (1 << 64) - 1
#: :meth:`CPU.run`'s default step budget.
MAX_STEPS = 1_000_000


class ExecutionStatus(enum.Enum):
    HALTED = "halted"
    PASSED = "passed"
    FAILED = "failed"


class ExecutionLimitExceeded(Exception):
    """The program did not terminate within the step budget."""


class ProtectionFault(Exception):
    """A load/store failed its permission check (after translation).

    Mirrors real MMU behaviour -- and the Double Page Fault attack's
    premise: the TLB caches the translation *before* the access faults,
    so a repeated faulting access is architecturally fast.
    """

    def __init__(self, vpn: int, asid: int, write: bool) -> None:
        kind = "store to" if write else "load from"
        super().__init__(f"protection fault: {kind} vpn={vpn:#x} (asid={asid})")
        self.vpn = vpn
        self.asid = asid
        self.write = write


@dataclass(frozen=True)
class ExecutionResult:
    """Summary of one program run."""

    status: ExecutionStatus
    cycles: int
    instructions: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def _signed(value: int) -> int:
    value &= MASK64
    return value - (1 << 64) if value >> 63 else value


class CPU:
    """Interpreter for assembled benchmark programs."""

    def __init__(
        self,
        tlb: Optional[BaseTLB] = None,
        translator: Optional[Translator] = None,
        memory: Optional[Memory] = None,
        flush_tlb_on_pid_switch: bool = False,
        enforce_permissions: bool = False,
        memory_system: Optional[MemorySystem] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        if memory_system is None:
            if tlb is None or translator is None:
                raise ValueError(
                    "pass either a memory_system or a tlb + translator"
                )
            #: Emulates the Sanctum / Intel SGX software mitigation of
            #: Section 2.3: the TLB is fully flushed whenever execution
            #: switches between processes.
            policy = (
                SwitchPolicy.FLUSH_ALL
                if flush_tlb_on_pid_switch
                else SwitchPolicy.KEEP
            )
            memory_system = MemorySystem(
                tlb, translator, switch_policy=policy, bus=bus
            )
        self.mem = memory_system
        self.memory = memory or Memory()
        #: Check PTE permissions on every access (after the TLB fill, as
        #: hardware does -- see :class:`ProtectionFault`).  Off by default:
        #: the micro benchmarks map everything user-accessible.
        self.enforce_permissions = enforce_permissions
        self.registers: List[int] = [0] * 32
        self.pc = 0
        self.cycles = 0
        self.instructions_retired = 0
        self.csr = CSRFile()
        self.csr.bind_counter("cycle", lambda: self.cycles)
        self.csr.bind_counter("instret", lambda: self.instructions_retired)
        self.csr.bind_counter("tlb_miss_count", lambda: self.tlb.stats.misses)
        self.csr.on_write("sbase", lambda _v: self._sync_secure_region())
        self.csr.on_write("ssize", lambda _v: self._sync_secure_region())
        self.csr.on_write("process_id", self.mem.context_switch)
        self._program: Optional[Program] = None

    @property
    def tlb(self) -> BaseTLB:
        return self.mem.tlb

    @property
    def translator(self) -> Translator:
        return self.mem.walker

    @property
    def flush_tlb_on_pid_switch(self) -> bool:
        return self.mem.switch_policy is SwitchPolicy.FLUSH_ALL

    # -- program setup -----------------------------------------------------------

    def load(self, program: Program) -> None:
        """Reset architectural state and install the data image.

        The image is installed for the current ``process_id`` address space
        (the OS loading the test binary); the benchmarks only measure
        timing, so the other simulated process reads zero-filled pages.
        """
        self._program = program
        self.registers = [0] * 32
        self.pc = 0
        home_asid = self.asid
        for vaddr, value in program.data.items():
            walk = self.translator.walk(vaddr >> PAGE_BITS, home_asid)
            self.memory.store(
                walk.ppn * PAGE_SIZE + (vaddr % PAGE_SIZE), value
            )

    @property
    def asid(self) -> int:
        return self.csr.read("process_id")

    def _sync_secure_region(self) -> None:
        """Propagate the sbase/ssize CSRs into an RF TLB's registers."""
        if hasattr(self.tlb, "set_secure_region"):
            self.tlb.set_secure_region(
                sbase=self.csr.read("sbase"), ssize=self.csr.read("ssize")
            )

    # -- checkpoints ----------------------------------------------------------------

    def checkpoint(self) -> tuple:
        """The whole machine's state between two steps, for :meth:`rewind`:
        registers, counters, CSRs, physical memory and the memory system
        (which needs a checkpointable TLB and walker)."""
        return (
            self.mem.checkpoint(),
            self.memory.checkpoint(),
            self.csr.checkpoint(),
            list(self.registers),
            self.pc,
            self.cycles,
            self.instructions_retired,
            self._program,
        )

    def rewind(self, state: tuple) -> None:
        """Return to a :meth:`checkpoint`, in place: the CSR hooks and
        counters keep reading this CPU and its memory system."""
        (mem, memory, csr, registers, self.pc, self.cycles,
         self.instructions_retired, self._program) = state
        self.mem.rewind(mem)
        self.memory.rewind(memory)
        self.csr.rewind(csr)
        self.registers[:] = registers

    # -- execution ----------------------------------------------------------------

    def run(self, max_steps: int = MAX_STEPS) -> ExecutionResult:
        """Execute until a terminator; raise if the budget is exhausted."""
        if self._program is None:
            raise RuntimeError("no program loaded")
        for _ in range(max_steps):
            status = self.step()
            if status is not None:
                return ExecutionResult(
                    status=status,
                    cycles=self.cycles,
                    instructions=self.instructions_retired,
                )
        raise ExecutionLimitExceeded(
            f"no terminator within {max_steps} steps (pc={self.pc})"
        )

    def step(self) -> Optional[ExecutionStatus]:
        """Execute one instruction; return a status when the program ends."""
        program = self._program
        if program is None:
            raise RuntimeError("no program loaded")
        if not 0 <= self.pc < len(program.instructions):
            # Falling off the end is a plain halt.
            return ExecutionStatus.HALTED
        instruction = program.instructions[self.pc]
        self.instructions_retired += 1
        next_pc = self.pc + 1
        cost = 1

        mnemonic = instruction.mnemonic
        regs = self.registers

        if mnemonic in ("ld", "ldnorm", "ldrand"):
            cost, value = self._memory_access(instruction, store=False)
            self._write_reg(instruction.rd, value)
        elif mnemonic == "sd":
            cost, _ = self._memory_access(instruction, store=True)
        elif mnemonic == "li":
            self._write_reg(instruction.rd, instruction.imm)
        elif mnemonic == "mv":
            self._write_reg(instruction.rd, regs[instruction.rs1])
        elif mnemonic == "la":
            address = program.symbol_address(instruction.symbol, instruction.line)
            self._write_reg(instruction.rd, address)
        elif mnemonic == "add":
            self._write_reg(instruction.rd, regs[instruction.rs1] + regs[instruction.rs2])
        elif mnemonic == "sub":
            self._write_reg(instruction.rd, regs[instruction.rs1] - regs[instruction.rs2])
        elif mnemonic == "and":
            self._write_reg(instruction.rd, regs[instruction.rs1] & regs[instruction.rs2])
        elif mnemonic == "or":
            self._write_reg(instruction.rd, regs[instruction.rs1] | regs[instruction.rs2])
        elif mnemonic == "xor":
            self._write_reg(instruction.rd, regs[instruction.rs1] ^ regs[instruction.rs2])
        elif mnemonic == "addi":
            self._write_reg(instruction.rd, regs[instruction.rs1] + instruction.imm)
        elif mnemonic == "andi":
            self._write_reg(instruction.rd, regs[instruction.rs1] & instruction.imm)
        elif mnemonic == "ori":
            self._write_reg(instruction.rd, regs[instruction.rs1] | instruction.imm)
        elif mnemonic == "xori":
            self._write_reg(instruction.rd, regs[instruction.rs1] ^ instruction.imm)
        elif mnemonic == "slli":
            self._write_reg(instruction.rd, regs[instruction.rs1] << instruction.imm)
        elif mnemonic == "srli":
            self._write_reg(instruction.rd, regs[instruction.rs1] >> instruction.imm)
        elif mnemonic in ("beq", "bne", "blt", "bge"):
            if self._branch_taken(instruction):
                next_pc = program.label_target(instruction.symbol, instruction.line)
        elif mnemonic == "j":
            next_pc = program.label_target(instruction.symbol, instruction.line)
        elif mnemonic == "csrr":
            self._write_reg(instruction.rd, self.csr.read(instruction.csr))
        elif mnemonic in ("csrw", "csrwi"):
            if instruction.rs1 is not None:
                value = regs[instruction.rs1]
            else:
                value = instruction.imm
            self.csr.write(instruction.csr, value)
        elif mnemonic == "sfence.vma":
            cost = self._sfence(instruction)
        elif mnemonic == "nop":
            pass
        elif mnemonic == "halt":
            self.cycles += cost
            return ExecutionStatus.HALTED
        elif mnemonic == "pass":
            self.cycles += cost
            return ExecutionStatus.PASSED
        elif mnemonic == "fail":
            self.cycles += cost
            return ExecutionStatus.FAILED
        else:  # pragma: no cover - the assembler rejects unknown mnemonics
            raise ValueError(f"unhandled mnemonic {mnemonic}")

        self.cycles += cost
        self.pc = next_pc
        return None

    # -- helpers -------------------------------------------------------------------

    def _write_reg(self, rd: int, value: int) -> None:
        if rd != 0:  # x0 is hardwired to zero.
            self.registers[rd] = value & MASK64

    def _branch_taken(self, instruction: Instruction) -> bool:
        left = self.registers[instruction.rs1]
        right = self.registers[instruction.rs2]
        if instruction.mnemonic == "beq":
            return left == right
        if instruction.mnemonic == "bne":
            return left != right
        if instruction.mnemonic == "blt":
            return _signed(left) < _signed(right)
        return _signed(left) >= _signed(right)  # bge

    def _memory_access(self, instruction: Instruction, store: bool):
        vaddr = (self.registers[instruction.rs1] + instruction.imm) & MASK64
        vpn = vaddr >> PAGE_BITS
        # The translation is performed -- and cached by the TLB -- before
        # the permission check, as in hardware.
        result = self.mem.translate(vpn, self.asid)
        if self.enforce_permissions and hasattr(self.translator, "allows"):
            from repro.mmu import Permission

            required = Permission.WRITE if store else Permission.READ
            if not self.translator.allows(vpn, self.asid, required):
                self.cycles += result.cycles
                raise ProtectionFault(vpn, self.asid, write=store)
        paddr = result.ppn * PAGE_SIZE + (vaddr % PAGE_SIZE)
        if store:
            self.memory.store(paddr, self.registers[instruction.rs2])
            return result.cycles, None
        return result.cycles, self.memory.load(paddr)

    def _sfence(self, instruction: Instruction) -> int:
        if instruction.rs1 is None:
            self.mem.flush_all()
            return 1
        vpn = self.registers[instruction.rs1] >> PAGE_BITS
        asid = (
            self.registers[instruction.rs2]
            if instruction.rs2 is not None
            else self.asid
        )
        result = self.mem.invalidate_page(vpn, asid)
        return result.cycles
