"""Benchmark: the design-space sweeps (the paper's future-work knobs)."""

from repro.ablations import (
    format_partition_sweep,
    format_region_sweep,
    replacement_policy_point,
    rf_region_point,
    sp_partition_point,
)
from repro.tlb import ReplacementKind

POLICIES = (
    ReplacementKind.LRU,
    ReplacementKind.TREE_PLRU,
    ReplacementKind.FIFO,
    ReplacementKind.RANDOM,
)


def test_sp_partition_sweep(benchmark):
    points = benchmark.pedantic(
        lambda: [sp_partition_point(ways) for ways in (1, 2, 3)],
        rounds=1, iterations=1,
    )
    print()
    print("SP TLB partition split (Section 4.1.2's future work):")
    print(format_partition_sweep(points))
    attacker_mpki = [point.attacker_mpki for point in points]
    assert attacker_mpki == sorted(attacker_mpki)


def test_rf_region_sweep(benchmark):
    points = benchmark.pedantic(
        lambda: [
            rf_region_point(pages, trials=60) for pages in (1, 2, 3, 8, 31)
        ],
        rounds=1,
        iterations=1,
    )
    print()
    print("RF TLB secure-region size vs overhead and residual channel:")
    print(format_region_sweep(points))
    assert points[0].prime_probe_capacity > 0.8  # 1-page region: no entropy
    assert all(point.prime_probe_capacity < 0.2 for point in points[2:])


def test_replacement_policy_sweep(benchmark):
    points = benchmark.pedantic(
        lambda: [replacement_policy_point(policy) for policy in POLICIES],
        rounds=1, iterations=1,
    )
    print()
    print("TLBleed accuracy per replacement policy (SA TLB):")
    for point in points:
        print(
            f"  {point.policy.value:8} {point.accuracy:.1%}"
            f"{'  full recovery' if point.recovered_exactly else ''}"
        )
    by_policy = {point.policy: point for point in points}
    assert by_policy[ReplacementKind.LRU].recovered_exactly
    assert not by_policy[ReplacementKind.RANDOM].recovered_exactly
