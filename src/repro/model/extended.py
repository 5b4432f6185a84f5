"""Appendix B: the extended model with targeted TLB invalidations.

If an ISA (or an OS interface such as ``mprotect``) lets the attacker or the
victim invalidate the translation of one *specific* address -- and if that
invalidation's latency depends on whether the entry was present -- then the
seven extra states of Table 6 become possible and many additional
vulnerabilities arise (Table 7): the Flush + Time, Flush + Flush,
Flush + Probe and Reload + Time families, plus invalidation-probe variants
of every base strategy.

The derivation pipeline is identical to the base model's; only the state
alphabet grows (the symbolic rules already permit targeted invalidations in
Steps 2 and 3, unlike coarse flushes), and the abstract automaton gives a
targeted invalidation its Appendix B timing semantics: *slow* when the entry
is present (a second cycle is needed to clear it), *fast* when it is not.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Tuple

from .effectiveness import derive_vulnerabilities
from .patterns import Observation, Strategy, Vulnerability
from .states import Actor, EXTENDED_STATES, Operation


def derive_extended_vulnerabilities() -> List[Vulnerability]:
    """All effective vulnerabilities over the seventeen-state alphabet."""
    return derive_vulnerabilities(EXTENDED_STATES)


def invalidation_only_vulnerabilities() -> List[Vulnerability]:
    """The Table 7 rows: vulnerabilities that need targeted invalidation."""
    return list(_invalidation_only_rows())


@functools.lru_cache(maxsize=None)
def _invalidation_only_rows() -> Tuple[Vulnerability, ...]:
    # Derived once per process: the derivation takes tens of
    # milliseconds, and the rows depend on no input.
    return tuple(
        vulnerability
        for vulnerability in derive_extended_vulnerabilities()
        if vulnerability.pattern.uses_extended_states()
    )


def strategy_label(vulnerability: Vulnerability) -> str:
    """Table 7-style strategy label for an extended-model vulnerability.

    Base-model patterns keep their Table 2 strategy name.  Extended patterns
    are grouped by where the targeted invalidation occurs:

    * secret step is an invalidation (``V_u^inv``) -> Flush + Probe family;
    * middle known step is an invalidation -> Flush + Time;
    * Step 1 invalidation with a timed reload of ``u`` -> Reload + Time;
    * Step 3 is a timed invalidation probing a prior access -> the
      "``... Invalidation``" variant of the base strategy, with an
      invalidation-primed Step 1 collapsing into Flush + Flush.
    """
    pattern = vulnerability.pattern
    if not pattern.uses_extended_states():
        return vulnerability.strategy.value

    step1, step2, step3 = pattern.steps

    def targeted(state) -> bool:
        return state.operation is Operation.INVALIDATE_TARGET

    if step2.is_secret and targeted(step2):
        return Strategy.FLUSH_PROBE.value
    if step2.is_known and targeted(step2):
        return Strategy.FLUSH_TIME.value
    if step1.is_secret and targeted(step1):
        return Strategy.RELOAD_TIME.value

    if targeted(step3):
        if targeted(step1):
            return Strategy.FLUSH_FLUSH.value
        base = _base_strategy_shape(vulnerability)
        return f"{base} Invalidation"
    if targeted(step1):
        # A targeted invalidation priming Step 1 behaves like the coarse
        # flush/prime variants of the base strategies.
        return _base_strategy_shape(vulnerability)
    raise ValueError(f"unclassified extended pattern {pattern}")


def _base_strategy_shape(vulnerability: Vulnerability) -> str:
    """Classify by pattern shape and actors, ignoring operation kinds."""
    pattern = vulnerability.pattern
    step1, step2, step3 = pattern.steps
    if step1.is_secret and step3.is_secret:
        if step2.actor is Actor.ATTACKER:
            return Strategy.EVICT_TIME.value
        return Strategy.BERNSTEIN.value
    hit_like = vulnerability.observation is Observation.FAST
    if step3.operation is Operation.ACCESS and hit_like:
        if step3.actor is Actor.VICTIM:
            return Strategy.INTERNAL_COLLISION.value
        return Strategy.FLUSH_RELOAD.value
    first, third = step1.actor, step3.actor
    if first is Actor.ATTACKER and third is Actor.ATTACKER:
        return Strategy.PRIME_PROBE.value
    if first is Actor.VICTIM and third is Actor.ATTACKER:
        return Strategy.EVICT_PROBE.value
    if first is Actor.ATTACKER and third is Actor.VICTIM:
        return Strategy.PRIME_TIME.value
    return Strategy.BERNSTEIN.value


def summarize_by_strategy() -> Dict[str, int]:
    """Row counts of the extended-only vulnerabilities per strategy label."""
    counts: Dict[str, int] = {}
    for vulnerability in invalidation_only_vulnerabilities():
        label = strategy_label(vulnerability)
        counts[label] = counts.get(label, 0) + 1
    return counts
