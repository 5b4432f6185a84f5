"""Reproduction of "Secure TLBs" (Deng, Xiong, Szefer; ISCA 2019).

Subpackages:

* :mod:`repro.model`     -- the three-step TLB vulnerability model.
* :mod:`repro.tlb`       -- behavioural TLB simulators (SA/FA, SP, RF).
* :mod:`repro.mmu`       -- Sv39 page tables, walker, and switch policies.
* :mod:`repro.isa`       -- RISC-V-flavoured assembler and in-order CPU.
* :mod:`repro.security`  -- micro security benchmarks + Table 4 evaluation.
* :mod:`repro.workloads` -- RSA and SPEC-like page-trace workloads.
* :mod:`repro.perf`      -- performance (Fig. 7) and area (Table 5) models.
* :mod:`repro.attacks`   -- end-to-end attack demonstrations.
"""

__version__ = "1.0.0"
