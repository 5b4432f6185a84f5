"""The ``python -m repro trace`` scenarios and CLI plumbing."""

from __future__ import annotations

import io
import json

import pytest

from repro.sim import SCENARIOS, run_scenario
from repro.tlb import TLBKind


def test_unknown_scenario_is_rejected() -> None:
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("nope", io.StringIO())


@pytest.mark.parametrize("name", ["dpf", "security"])
def test_cheap_scenarios_emit_valid_jsonl(name: str) -> None:
    sink = io.StringIO()
    report = run_scenario(name, sink, kind=TLBKind.SA)
    lines = sink.getvalue().splitlines()
    assert report.scenario == name
    assert report.events == len(lines) > 0
    known = {"access", "walk", "fill", "evict", "flush", "context_switch"}
    for index, line in enumerate(lines):
        record = json.loads(line)
        assert record["event"] in known
        assert record["seq"] == index
    assert report.stats.accesses > 0
    assert report.outcome  # One human-readable line.


def test_scenarios_registry_is_complete() -> None:
    assert set(SCENARIOS) == {
        "tlbleed", "covert", "dpf", "profiling", "perf", "security",
    }


def test_cli_trace_writes_jsonl(tmp_path, capsys) -> None:
    from repro.cli import main

    out = tmp_path / "trace.jsonl"
    assert main(["trace", "dpf", "--design", "RF", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records, "the trace must contain events"
    captured = capsys.readouterr()
    assert f"{len(records)} events" in captured.err


def test_cli_trace_unknown_scenario_is_a_usage_error(capsys) -> None:
    from repro.cli import main

    with pytest.raises(SystemExit) as raised:
        main(["trace", "nope"])
    assert raised.value.code == 2
    err = capsys.readouterr().err
    assert "argument scenario: invalid choice: 'nope'" in err
    assert ", ".join(sorted(SCENARIOS)) in err
    assert "Traceback" not in err
