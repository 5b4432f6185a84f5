"""Per-cell run-kernel counts come home on every backend's outcomes.

Each cell runs under its own kernel count (``repro.runner.execute``) and
the count travels on the cell's ``TaskOutcome``: through the pool's
result queue, through the work-stealing board's result records, or
straight back from an in-process run.  ``run_all`` sums them, so the same
cells must report the same nonzero counts under every executor --
including work stealing served only by a separate ``python -m repro
worker`` process, which stands in for a peer on another host.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import repro
from repro.runner import run_all
from repro.sim.kernel import kernel_count

#: A handful of small Figure 7 cells: all three designs of one
#: multiprogrammed scenario (the shared-TLB oracle tier) plus one
#: RSA-alone SP cell.
FILTERS = ["fig7/grid/*/4W 32/SecRSA+omnetpp/*", "fig7/grid/SP/4W 32/RSA/*"]
OPTIONS = {
    "fig7_spec_instructions": 20_000,
    "fig7_key_bits": 64,
    "fig7_rsa_runs": [3],
}
SRC = str(Path(repro.__file__).resolve().parent.parent)


def _counts(report):
    return (
        report.kernel_run_hits,
        report.kernel_fallback_accesses,
        report.kernel_runs,
    )


def test_figure7_counts_agree_under_every_executor(tmp_path):
    def run(name, **kwargs):
        report = run_all(
            filters=FILTERS,
            options=OPTIONS,
            results_dir=tmp_path / name / "results",
            cache_dir=tmp_path / name / "cache",
            progress=False,
            **kwargs,
        )
        assert report.ok and report.completed == 4
        return report

    inline = run("inline", jobs=1)
    pool = run("pool", jobs=2)
    stolen = run("steal", jobs=2, executor="work-stealing", workers=2)
    assert stolen.cells_stolen == 4

    # A worker in its own interpreter, sharing nothing with this process
    # but the cache directory; the parent never falls back to inline.
    worker = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            str(tmp_path / "remote" / "cache"),
            "--quiet", "--poll-interval", "0.05", "--idle-exit", "60",
        ],
        env={**os.environ, "PYTHONPATH": SRC},
    )
    try:
        remote = run(
            "remote",
            executor="work-stealing",
            workers=0,
            executor_options={"fallback_after": 60.0},
        )
    finally:
        worker.terminate()
        worker.wait(timeout=30)
    assert remote.cells_stolen == 4 and remote.fallback_cells == 0

    assert all(_counts(inline))
    assert _counts(pool) == _counts(stolen) == _counts(remote) == _counts(inline)


def test_cache_hits_count_nothing(tmp_path):
    kwargs = dict(
        filters=FILTERS[:1],
        options=OPTIONS,
        results_dir=tmp_path / "results",
        cache_dir=tmp_path / "cache",
        progress=False,
        jobs=1,
    )
    assert all(_counts(run_all(**kwargs)))
    warm = run_all(**kwargs)
    assert warm.cache_hits == 3 and _counts(warm) == (0, 0, 0)


def test_counts_are_context_local():
    """Replays count only into the count open in their own context."""
    from repro.perf.harness import PerfSettings, Scenario, run_cell
    from repro.tlb import TLBKind
    from repro.workloads.spec import by_name

    def cell():
        run_cell(
            TLBKind.SA,
            "4W 32",
            Scenario(secure=False, spec=by_name("omnetpp")),
            rsa_runs=2,
            settings=PerfSettings(spec_instructions=10_000, key_bits=64),
        )

    cell()  # outside any count: counted nowhere, and no error
    with kernel_count() as outer:
        cell()
        with kernel_count() as inner:
            cell()
        # Another thread runs in its own context, outside this count.
        thread = threading.Thread(target=cell)
        thread.start()
        thread.join()
    assert inner.run_hits > 0
    assert outer == inner
