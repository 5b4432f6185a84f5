"""The bench's security tier (repro.perf.bench): the protected RSA trace."""

from __future__ import annotations

from repro.perf import bench


def test_each_security_row_replays_security_reps_times(monkeypatch):
    """The RSA trace replays in microseconds, so each security row is
    timed as the best of SECURITY_REPS replays per path, not REPS."""
    replays = []
    reference = bench._replay_reference

    def counted(tlb, *args):
        replays.append(tlb)
        return reference(tlb, *args)

    monkeypatch.setattr(bench, "_replay_reference", counted)
    rows = bench._security_replays(runs=1, key_bits=64)
    assert [row["design"] for row in rows] == ["SA", "SP", "RF"]
    assert len(replays) == len(rows) * bench.SECURITY_REPS
    assert all(row["counters_equal"] for row in rows)
    assert all(row["fast_aps"] > 0 for row in rows)
