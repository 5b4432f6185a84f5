"""End-to-end suite: a live server on localhost, driven over HTTP.

Covers the service acceptance contract: submit/poll/fetch round-trips,
instant byte-identical cached re-submits, concurrent-identical dedup to
a single simulation, one cell running at a time on the one cell thread
that stop() waits for, quota 429s, queue-full 503s, malformed-spec 400s,
and metrics that agree with what actually happened.
"""

import dataclasses
import hashlib
import json
import threading
import time

import pytest

from repro.serve import jobs
from repro.serve.metrics import ServiceMetrics
from repro.serve.store import ResultStore
from repro.sim.kernel import KernelCounts

from .conftest import CONCURRENCY, HOLD, RUN_CALLS, RUN_THREADS


def _toy_spec(values=(1, 2, 3), delay=0.0, **extra):
    spec = {
        "experiment": "serve-toy",
        "options": {"serve_toy_values": list(values)},
    }
    if delay:
        spec["options"]["serve_toy_delay"] = delay
    spec.update(extra)
    return spec


def test_submit_poll_fetch_roundtrip(serve_harness):
    harness = serve_harness()
    status, _headers, body = harness.request_json(
        "POST", "/v1/jobs", _toy_spec()
    )
    assert status == 202
    assert body["disposition"] == "queued"
    assert body["cells"] == 3
    assert len(body["content_hash"]) == 64

    doc = harness.poll_job(body["status_url"])
    assert doc["state"] == "done"
    assert doc["cells"] == {"total": 3, "done": 3, "cached": 0, "failed": 0}
    # Per-cell progress is streamed back out of the JSONL telemetry.
    assert {event["cell"] for event in doc["progress"]} == {
        "serve-toy/1", "serve-toy/2", "serve-toy/3"
    }

    status, headers, payload = harness.request("GET", doc["result_url"])
    assert status == 200
    digest = hashlib.sha256(payload).hexdigest()
    assert digest == headers["X-Repro-Sha256"] == doc["result_sha256"]
    document = json.loads(payload)
    assert document["result"] == {"squares": [1, 4, 9]}
    assert document["cells"] == {"selected": 3, "full": 3, "complete": True}
    assert RUN_CALLS.count(1) == 1


def test_cached_resubmit_is_instant_and_byte_identical(serve_harness):
    harness = serve_harness()
    _status, _headers, first = harness.request_json(
        "POST", "/v1/jobs", _toy_spec()
    )
    doc = harness.poll_job(first["status_url"])
    _status, _headers, payload_one = harness.request("GET", doc["result_url"])
    runs_after_first = len(RUN_CALLS)

    status, _headers, second = harness.request_json(
        "POST", "/v1/jobs", _toy_spec()
    )
    assert status == 200
    assert second["disposition"] == "cached"
    assert second["state"] == "done"
    assert second["content_hash"] == first["content_hash"]
    assert second["result_sha256"] == doc["result_sha256"]
    # Answered from the store: no cell ran again.
    assert len(RUN_CALLS) == runs_after_first

    _status, _headers, payload_two = harness.request(
        "GET", second["result_url"]
    )
    assert payload_two == payload_one


def test_a_spelt_out_default_is_answered_from_the_store(serve_harness):
    harness = serve_harness()
    _status, _headers, first = harness.request_json(
        "POST", "/v1/jobs", _toy_spec()
    )
    doc = harness.poll_job(first["status_url"])
    runs_after_first = len(RUN_CALLS)

    # The same cells, with an option spelt out at its default value.
    spelt_out = _toy_spec()
    spelt_out["options"]["serve_toy_delay"] = 0.0
    status, _headers, second = harness.request_json(
        "POST", "/v1/jobs", spelt_out
    )
    assert status == 200
    assert second["disposition"] == "cached"
    assert second["content_hash"] == first["content_hash"]
    assert second["result_sha256"] == doc["result_sha256"]
    assert len(RUN_CALLS) == runs_after_first


def test_concurrent_identical_submits_dedup_to_one_simulation(serve_harness):
    harness = serve_harness()
    spec = _toy_spec(values=(5, 6), delay=0.6)
    results = []

    def submit():
        results.append(harness.request_json("POST", "/v1/jobs", spec))

    threads = [threading.Thread(target=submit) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    bodies = [body for _status, _headers, body in results]
    assert {body["disposition"] for body in bodies} == {"queued", "deduped"}
    # Both submissions name the same job.
    assert len({body["job_id"] for body in bodies}) == 1

    doc = harness.poll_job(bodies[0]["status_url"])
    assert doc["state"] == "done"
    assert doc["attached"] == 1
    # Exactly one simulation of each cell, not two.
    assert sorted(RUN_CALLS) == [5, 6]

    _status, _headers, metrics = harness.request_json("GET", "/v1/metrics")
    assert metrics["counters"]["jobs_deduped"] == 1


def test_distinct_specs_are_not_deduped(serve_harness):
    harness = serve_harness()
    _s, _h, one = harness.request_json(
        "POST", "/v1/jobs", _toy_spec(values=(2,))
    )
    _s, _h, two = harness.request_json(
        "POST", "/v1/jobs", _toy_spec(values=(3,))
    )
    assert one["content_hash"] != two["content_hash"]
    assert harness.poll_job(one["status_url"])["state"] == "done"
    assert harness.poll_job(two["status_url"])["state"] == "done"


def test_a_job_runs_its_cells_one_at_a_time(serve_harness):
    harness = serve_harness()
    _s, _h, body = harness.request_json(
        "POST", "/v1/jobs", _toy_spec(values=(7, 8), delay=0.2)
    )
    assert harness.poll_job(body["status_url"])["state"] == "done"
    assert sorted(RUN_CALLS) == [7, 8]
    assert CONCURRENCY["peak"] == 1


def test_cells_run_on_the_managers_one_cell_thread(serve_harness):
    harness = serve_harness()
    for values in ((1, 2), (3, 4)):
        _s, _h, body = harness.request_json(
            "POST", "/v1/jobs", _toy_spec(values=values)
        )
        assert harness.poll_job(body["status_url"])["state"] == "done"
    assert len(RUN_THREADS) == 4
    (name,) = set(RUN_THREADS)
    assert name.startswith("repro-serve-cell")


def test_stop_waits_for_the_running_cell(serve_harness):
    harness = serve_harness()
    harness.request_json(
        "POST", "/v1/jobs", _toy_spec(values=(1, 2), delay=0.5)
    )
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline and not CONCURRENCY["running"]:
        time.sleep(0.01)
    assert CONCURRENCY["running"] == 1
    cell_threads = [
        thread for thread in threading.enumerate()
        if thread.name.startswith("repro-serve-cell")
    ]
    assert cell_threads

    harness.stop()
    # No cell of the stopped manager is left running, nor its thread.
    assert CONCURRENCY["running"] == 0
    assert not any(thread.is_alive() for thread in cell_threads)


def test_a_full_queue_returns_503(serve_harness, monkeypatch):
    monkeypatch.setattr(jobs, "MAX_QUEUED_JOBS", 1)
    harness = serve_harness(dispatchers=1)
    _s, _h, first = harness.request_json(
        "POST", "/v1/jobs", _toy_spec(values=(1,), delay=0.5)
    )
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline:
        _s, _h, doc = harness.request_json("GET", first["status_url"])
        if doc["state"] == "running":
            break
        time.sleep(0.01)
    assert doc["state"] == "running"
    # The one dispatcher is busy, so the next novel spec fills the queue.
    status, _h, queued = harness.request_json(
        "POST", "/v1/jobs", _toy_spec(values=(2,), delay=0.5)
    )
    assert status == 202 and queued["disposition"] == "queued"

    status, reply_headers, body = harness.request_json(
        "POST", "/v1/jobs", _toy_spec(values=(3,))
    )
    assert status == 503
    assert body["error"] == "queue-full"
    assert reply_headers["Retry-After"] == "5"


def test_quota_exhaustion_returns_429(serve_harness):
    harness = serve_harness(quota_rate=0.001, quota_burst=2)
    spec = _toy_spec(values=(7,))
    headers = {"X-Repro-Client": "tenant-a"}
    for _ in range(2):
        status, _h, _b = harness.request_json(
            "POST", "/v1/jobs", spec, headers=headers
        )
        assert status in (200, 202)

    status, reply_headers, body = harness.request_json(
        "POST", "/v1/jobs", spec, headers=headers
    )
    assert status == 429
    assert body["error"] == "quota-exhausted"
    assert int(reply_headers["Retry-After"]) >= 1

    # A different client has its own bucket.
    status, _h, _b = harness.request_json(
        "POST", "/v1/jobs", spec, headers={"X-Repro-Client": "tenant-b"}
    )
    assert status in (200, 202)

    _s, _h, metrics = harness.request_json("GET", "/v1/metrics")
    assert metrics["counters"]["quota_rejections"] == 1
    assert metrics["quota"]["clients"]["tenant-a"]["rejected"] == 1


def test_malformed_specs_return_400(serve_harness):
    harness = serve_harness()
    cases = [
        ({"experiment": "no-such-experiment"}, "bad-spec"),
        ({}, "bad-spec"),
        ({"experiment": "serve-toy", "options": {"bogus_option": 1}}, "bad-spec"),
        ({"experiment": "serve-toy", "priority": 99}, "bad-spec"),
        ({"experiment": "serve-toy", "design": "XX"}, "bad-spec"),
        ({"experiment": "serve-toy", "typo_field": 1}, "bad-spec"),
        ({"experiment": "table2", "trials": 5}, "bad-spec"),
        ([1, 2, 3], "bad-spec"),
    ]
    for payload, code in cases:
        status, _headers, body = harness.request_json(
            "POST", "/v1/jobs", payload
        )
        assert status == 400, payload
        assert body["error"] == code, payload

    # Not JSON at all.
    status, _headers, body = harness.request_json(
        "POST", "/v1/jobs", raw_body=b"this is not json",
        headers={"Content-Type": "application/json"},
    )
    assert status == 400
    assert body["error"] == "bad-request"


def test_failed_cells_fail_the_job(serve_harness):
    harness = serve_harness()
    spec = {
        "experiment": "serve-toy",
        "options": {"serve_toy_values": [4], "serve_toy_fail": True},
    }
    _status, _headers, body = harness.request_json("POST", "/v1/jobs", spec)
    doc = harness.poll_job(body["status_url"])
    assert doc["state"] == "failed"
    assert "told to fail" in doc["error"]
    assert doc["cells"]["failed"] == 1

    # No result document was stored for the failed hash.
    status, _headers, _body = harness.request(
        "GET", f"/v1/results/{body['content_hash']}"
    )
    assert status == 404


def test_metrics_and_health_reflect_the_run(serve_harness):
    harness = serve_harness()
    _s, _h, body = harness.request_json("POST", "/v1/jobs", _toy_spec())
    harness.poll_job(body["status_url"])
    # Identical spec again: a store hit, not a new simulation.
    harness.request_json("POST", "/v1/jobs", _toy_spec())

    _s, _h, health = harness.request_json("GET", "/v1/health")
    assert health["status"] == "ok"
    assert health["queue_depth"] == 0

    _s, _h, metrics = harness.request_json("GET", "/v1/metrics")
    counters = metrics["counters"]
    assert counters["jobs_submitted"] == 2
    assert counters["jobs_completed"] == 1
    assert counters["jobs_store_hits"] == 1
    assert counters["cells_run"] == 3
    assert metrics["gauges"]["queue_depth"] == 0
    # Cell cache: three misses then three stores on the first run.
    assert metrics["cell_cache"]["misses"] == 3
    assert metrics["cell_cache"]["stores"] == 3
    assert metrics["result_store"]["stores"] == 1
    assert metrics["result_store"]["hits"] >= 1


def test_metrics_carry_a_gauge_per_kernel_count(serve_harness):
    harness = serve_harness()
    _s, _h, body = harness.request_json("POST", "/v1/jobs", _toy_spec())
    job = harness.poll_job(body["status_url"])
    _s, _h, metrics = harness.request_json("GET", "/v1/metrics")
    gauges = metrics["gauges"]
    for count in dataclasses.fields(KernelCounts):
        assert gauges[f"kernel_{count.name}"] == job["kernel"][count.name]


def test_certification_verdict_is_served_and_counted(serve_harness):
    harness = serve_harness()

    # A non-certifying result: the document says None, no counter moves.
    _s, _h, plain = harness.request_json("POST", "/v1/jobs", _toy_spec())
    doc = harness.poll_job(plain["status_url"])
    _s, _h, document = harness.request_json("GET", doc["result_url"])
    assert document["certified"] is None

    # A certifying payload threads its verdict through to the document.
    def submit(values, certified):
        spec = _toy_spec(values=values)
        spec["options"]["serve_toy_certified"] = certified
        _s, _h, body = harness.request_json("POST", "/v1/jobs", spec)
        done = harness.poll_job(body["status_url"])
        _s, _h, served = harness.request_json("GET", done["result_url"])
        return served

    assert submit((4, 5), certified=True)["certified"] is True
    assert submit((6, 7), certified=False)["certified"] is False

    _s, _h, metrics = harness.request_json("GET", "/v1/metrics")
    counters = metrics["counters"]
    assert counters["results_certified"] == 1
    assert counters["results_uncertified"] == 1


def test_cell_cache_accelerates_overlapping_specs(serve_harness):
    harness = serve_harness()
    _s, _h, one = harness.request_json(
        "POST", "/v1/jobs", _toy_spec(values=(1, 2))
    )
    harness.poll_job(one["status_url"])
    # A different spec sharing cells: (1, 2) come from the cell cache,
    # only 3 simulates.
    _s, _h, two = harness.request_json(
        "POST", "/v1/jobs", _toy_spec(values=(1, 2, 3))
    )
    doc = harness.poll_job(two["status_url"])
    assert doc["state"] == "done"
    assert doc["cells"]["cached"] == 2
    assert sorted(RUN_CALLS) == [1, 2, 3]


def test_unknown_routes_and_methods(serve_harness):
    harness = serve_harness()
    status, _h, body = harness.request_json("GET", "/v1/nope")
    assert status == 404
    status, headers, _b = harness.request("DELETE", "/v1/jobs")
    assert status == 405
    assert "GET" in headers["Allow"] and "POST" in headers["Allow"]
    status, _h, body = harness.request_json("GET", "/v1/results/zz")
    assert status == 400
    status, _h, body = harness.request_json("GET", "/v1/results/" + "a" * 64)
    assert status == 404
    status, _h, body = harness.request_json("GET", "/v1/jobs/j999999")
    assert status == 404


def test_job_listing(serve_harness):
    harness = serve_harness()
    _s, _h, one = harness.request_json(
        "POST", "/v1/jobs", _toy_spec(values=(8,))
    )
    harness.poll_job(one["status_url"])
    _s, _h, listing = harness.request_json("GET", "/v1/jobs")
    assert [job["id"] for job in listing["jobs"]] == [one["job_id"]]
    assert listing["jobs"][0]["state"] == "done"


def _fig7_spec(scenario):
    # A small Figure 7 job: the SA, SP and RF cells of one scenario.
    return {
        "experiment": "fig7",
        "filters": [f"fig7/grid/*/4W 32/{scenario}/*"],
        "options": {
            "fig7_spec_instructions": 20_000,
            "fig7_key_bits": 64,
            "fig7_rsa_runs": [3],
        },
    }


#: The job counts that depend on the cells alone, not on the process.
RUN_KERNEL = ("run_hits", "fallback_accesses", "runs")


def _run_kernel(doc):
    return {name: doc["kernel"][name] for name in RUN_KERNEL}


def _wait_for(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.02)


def _run_job(harness, spec):
    """Submit one spec; its finished job's status document."""
    body = harness.request_json("POST", "/v1/jobs", spec)[2]
    doc = harness.poll_job(body["status_url"])
    assert doc["state"] == "done"
    return doc


def test_concurrent_jobs_each_report_their_solo_kernel_counts(
    serve_harness, tmp_path
):
    specs = [_fig7_spec("SecRSA+omnetpp"), _fig7_spec("RSA+xalancbmk")]
    # No cell cache, and a result store per service: every job runs fresh.
    alone = serve_harness(use_cache=False, state_dir=tmp_path / "alone")
    solo_docs = [_run_job(alone, spec) for spec in specs]
    solo = [_run_kernel(doc) for doc in solo_docs]
    assert all(all(count > 0 for count in kernel.values()) for kernel in solo)
    assert solo[0] != solo[1]

    # A third dispatcher runs a toy job whose cell holds the one cell
    # thread until both Figure 7 jobs are running, so their runs overlap
    # however the host schedules them.
    together = serve_harness(
        use_cache=False, state_dir=tmp_path / "together", dispatchers=3
    )
    hold = _toy_spec(values=(7,))
    hold["options"]["serve_toy_hold"] = True
    held = together.request_json("POST", "/v1/jobs", hold)[2]
    _wait_for(lambda: RUN_CALLS == [7])
    bodies = [
        together.request_json("POST", "/v1/jobs", spec)[2] for spec in specs
    ]
    _wait_for(lambda: all(
        together.request_json("GET", body["status_url"])[2]["state"]
        == "running"
        for body in bodies
    ))
    HOLD.set()
    assert together.poll_job(held["status_url"])["state"] == "done"
    docs = [together.poll_job(body["status_url"]) for body in bodies]
    assert [doc["state"] for doc in docs] == ["done", "done"]
    # Both jobs were running before either's cells could start.
    assert max(doc["started"] for doc in docs) < min(
        doc["finished"] for doc in docs
    )
    assert [_run_kernel(doc) for doc in docs] == solo
    # What each job compiled and built depends on what the service's
    # process already held, so it is carried but not compared.
    for doc in solo_docs + docs:
        assert {"traces_compiled", "oracles_built"} <= set(doc["kernel"])

    for harness in (alone, together):
        _s, _h, metrics = harness.request_json("GET", "/v1/metrics")
        gauges = metrics["gauges"]
        for name in RUN_KERNEL:
            assert gauges[f"kernel_{name}"] == sum(
                kernel[name] for kernel in solo
            )


@pytest.mark.parametrize("dispatchers", [0, -2])
def test_fewer_than_one_dispatcher_is_refused(tmp_path, dispatchers):
    # Once, a count below 1 was clamped to one dispatcher.
    with pytest.raises(
        ValueError, match="dispatchers must be a positive integer"
    ):
        jobs.JobManager(
            ResultStore(tmp_path / "store"),
            ServiceMetrics(),
            dispatchers=dispatchers,
        )
