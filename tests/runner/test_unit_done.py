"""One ``unit_done`` schema under every executor.

The same ok cell and the same failing cell, run serially, on the process
pool, under work stealing and through the service's job manager, must
leave ``unit_done`` events with the same fields: the telemetry a run
explains itself with does not depend on where the cell ran.
"""

import asyncio

import pytest

from repro.runner import run_all
from repro.runner.registry import REGISTRY, Experiment, register
from repro.serve.jobs import JobManager, parse_spec
from repro.serve.metrics import ServiceMetrics
from repro.serve.store import ResultStore
from repro.sim import read_jsonl

#: Fields every fresh cell's event carries; a failure adds its error.
OK_FIELDS = {
    "event", "time", "experiment", "key", "status", "cached", "elapsed",
    "worker", "attempts",
}


class DoneToyExperiment(Experiment):
    """One cell that halves its value, one that always raises."""

    def units(self, options):
        return [self.unit("ok", value=4), self.unit("bad", value=0)]

    @staticmethod
    def run(params):
        if not params["value"]:
            raise ValueError("the bad cell always fails")
        return params["value"] / 2

    def assemble(self, values, options):
        return values


@pytest.fixture
def toy():
    register("done-toy")(DoneToyExperiment)
    yield REGISTRY["done-toy"]
    REGISTRY.pop("done-toy", None)


def _run_all_events(tmp_path, name, **backend):
    results = tmp_path / name
    run_all(
        filters=["done-toy/*"],
        use_cache=False,
        results_dir=results,
        max_retries=0,
        progress=False,
        **backend,
    )
    return read_jsonl(results / "run_log.jsonl")


def _serve_events(tmp_path):
    async def go():
        manager = JobManager(
            ResultStore(tmp_path / "store"),
            ServiceMetrics(),
            state_dir=tmp_path / "state",
        )
        await manager.start()
        try:
            job, _ = manager.submit(parse_spec({"experiment": "done-toy"}))
            await asyncio.wait_for(job.done_event.wait(), timeout=30)
        finally:
            await manager.stop()
        return job.log_path

    return read_jsonl(asyncio.run(go()))


def test_every_executor_writes_the_same_unit_done_fields(tmp_path, toy):
    events = {
        "serial": _run_all_events(tmp_path, "serial", jobs=1),
        "pool": _run_all_events(tmp_path, "pool", jobs=2),
        "work-stealing": _run_all_events(
            tmp_path, "stealing",
            executor="work-stealing",
            cache_dir=tmp_path / "board",
            executor_options=dict(
                lease_ttl=1.0, heartbeat_interval=0.1, poll_interval=0.02,
                fallback_after=0.05,
            ),
        ),
        "serve": _serve_events(tmp_path),
    }
    for backend, logged in events.items():
        done = {
            event["key"]: event for event in logged
            if event["event"] == "unit_done"
        }
        assert set(done) == {"ok", "bad"}, backend
        assert set(done["ok"]) == OK_FIELDS, backend
        assert done["ok"]["status"] == "ok"
        assert done["ok"]["cached"] is False
        assert done["ok"]["attempts"] == 1
        assert set(done["bad"]) == OK_FIELDS | {"error"}, backend
        assert done["bad"]["status"] == "failed"
        assert "the bad cell always fails" in done["bad"]["error"]
