"""Static analysis over the reproduction, in two layers.

**Layer 1 -- guest leakage checker.**  A taint/constant dataflow analysis
over assembled :mod:`repro.isa` programs: contract-declared secrets
(registers, CSRs, data symbols) are the sources; memory-operand address
computations, branch conditions, and branch-gated page touches are the
sinks.  A dynamic mode replays the program on the ISA CPU with a
:class:`TaintObserver` on the :class:`repro.sim.EventBus` and confirms
each static *may leak* verdict as a *does leak* secret-correlated access
pattern.

**Layer 2 -- host invariant linter.**  AST rules enforcing the repo's
architectural invariants (factory-only TLB/walker construction,
deterministic simulation paths, frozen event records, no snapshot
mutation) over ``src/repro``.

Both ship behind ``python -m repro analyze [guest|lint|all]``.  The
package itself imports nothing: import from its modules
(:mod:`~repro.analysis.taint`, :mod:`~repro.analysis.dynamic`,
:mod:`~repro.analysis.lint`, ...), so building the CLI's parser, which
loads :mod:`repro.analysis.cli`, stays clear of the simulator.
"""
