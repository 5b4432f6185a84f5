"""Graceful drain and killed-and-restarted convergence for the service.

Three layers of the same contract -- queued work survives any way the
process dies:

* in-process: a service torn down mid-job leaves an orphaned
  ``job_queued`` record in the jobs journal, and the next start resumes
  it to the byte-identical result a never-killed service produces;
* SIGTERM: the real ``ServeApp.run`` signal path stops accepting,
  finishes the in-flight job within ``drain_timeout``, and exits 0;
* SIGKILL: no goodbye at all -- the restarted process resumes the
  journaled job and converges anyway.
"""

import http.client
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.serve.jobs import JOBS_JOURNAL, parse_spec

from .conftest import ServeHarness

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _toy_spec(values=(1, 2, 3, 4), delay=0.5):
    return {
        "experiment": "serve-toy",
        "options": {
            "serve_toy_values": list(values),
            "serve_toy_delay": delay,
        },
    }


def test_killed_midjob_service_resumes_and_converges(
    tmp_path, toy_experiment
):
    state_dir = tmp_path / "state"
    cache_dir = tmp_path / "cache"
    victim = ServeHarness(state_dir=state_dir, cache_dir=cache_dir).start()
    _status, _headers, body = victim.request_json(
        "POST", "/v1/jobs", _toy_spec()
    )
    assert body["disposition"] == "queued"
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline:
        _s, _h, doc = victim.request_json("GET", body["status_url"])
        if doc["state"] == "running":
            break
        time.sleep(0.02)
    assert doc["state"] == "running"
    # Tear the service down mid-job: the dispatcher is cancelled, the
    # journal keeps the orphaned job_queued record.
    victim.stop()
    journal = (state_dir / JOBS_JOURNAL).read_text().splitlines()
    events = [json.loads(line)["event"] for line in journal]
    assert "job_queued" in events
    assert "job_done" not in events

    revived = ServeHarness(state_dir=state_dir, cache_dir=cache_dir).start()
    try:
        _s, _h, metrics = revived.request_json("GET", "/v1/metrics")
        assert metrics["counters"]["jobs_resumed"] == 1
        status, _h, again = revived.request_json(
            "POST", "/v1/jobs", _toy_spec()
        )
        assert again["disposition"] in ("deduped", "cached")
        assert again["content_hash"] == body["content_hash"]
        doc = revived.poll_job(again["status_url"])
        assert doc["state"] == "done"
        _s, _h, payload = revived.request("GET", doc["result_url"])
    finally:
        revived.stop()

    clean = ServeHarness(
        state_dir=tmp_path / "clean-state",
        cache_dir=tmp_path / "clean-cache",
    ).start()
    try:
        _s, _h, ref = clean.request_json("POST", "/v1/jobs", _toy_spec())
        ref_doc = clean.poll_job(ref["status_url"])
        _s, _h, reference = clean.request("GET", ref_doc["result_url"])
    finally:
        clean.stop()
    # The acceptance bar: killed-and-restarted converges byte-identically.
    assert payload == reference


def test_resumed_journal_is_compacted(tmp_path, toy_experiment):
    state_dir = tmp_path / "state"
    victim = ServeHarness(
        state_dir=state_dir, cache_dir=tmp_path / "cache"
    ).start()
    _s, _h, body = victim.request_json("POST", "/v1/jobs", _toy_spec())
    victim.stop()

    revived = ServeHarness(
        state_dir=state_dir, cache_dir=tmp_path / "cache"
    ).start()
    try:
        revived.poll_job(body["status_url"].replace(body["job_id"], "j000001"))
    finally:
        revived.stop()
    # After the resumed job finishes, the journal holds its terminal
    # record; a third start resumes nothing.
    third = ServeHarness(
        state_dir=state_dir, cache_dir=tmp_path / "cache"
    ).start()
    try:
        _s, _h, metrics = third.request_json("GET", "/v1/metrics")
        assert metrics["counters"]["jobs_resumed"] == 0
        _s, _h, again = third.request_json(
            "POST", "/v1/jobs", _toy_spec()
        )
        assert again["disposition"] == "cached"
    finally:
        third.stop()


def test_resume_retires_specs_that_no_longer_validate(tmp_path, toy_experiment):
    """Journaled specs pass the same validator as new submissions: one
    whose option left the vocabulary is retired, not resumed without it."""
    state_dir = tmp_path / "state"
    state_dir.mkdir()
    survivor = {
        "experiment": "serve-toy",
        "options": {"serve_toy_values": [1, 2]},
        "filters": [],
        "priority": 0,
        "client": "anonymous",
    }
    retired = dict(
        survivor, options={"serve_toy_values": [3], "serve_toy_gone": True}
    )
    (state_dir / JOBS_JOURNAL).write_text("".join(
        json.dumps({"event": "job_queued", "content_hash": name, "spec": spec})
        + "\n"
        for name, spec in (("survivor", survivor), ("retired", retired))
    ))
    revived = ServeHarness(
        state_dir=state_dir, cache_dir=tmp_path / "cache"
    ).start()
    try:
        _s, _h, metrics = revived.request_json("GET", "/v1/metrics")
        assert metrics["counters"]["jobs_resumed"] == 1
    finally:
        revived.stop()
    queued = [
        event["spec"]
        for event in map(
            json.loads, (state_dir / JOBS_JOURNAL).read_text().splitlines()
        )
        if event["event"] == "job_queued"
    ]
    # Re-journaled as the spec it resolves to.
    assert [parse_spec(spec) for spec in queued] == [parse_spec(survivor)]


# -- the real signal path, in a real process -----------------------------------

SERVER_SCRIPT = """
import pathlib
import sys

sys.path.insert(0, sys.argv[1])

from repro.runner.registry import COUNT_SERIES, Experiment, Kind, Option, register


class DrainToy(Experiment):
    declared_options = (
        Option("drain_toy_values", [], Kind(
            "a list of positive integers",
            lambda value: value == [] or COUNT_SERIES.admits(value),
        )),
        Option("drain_toy_delay", 0.0, Kind(
            "a non-negative number",
            lambda value: isinstance(value, (int, float)) and value >= 0,
        )),
    )

    def units(self, options):
        return [
            self.unit(str(value), value=value, delay=options["drain_toy_delay"])
            for value in options["drain_toy_values"]
        ]

    @staticmethod
    def run(params):
        import time

        if params.get("delay"):
            time.sleep(params["delay"])
        return params["value"] * 10

    def assemble(self, values, options):
        return {"tens": list(values)}


register("drain-toy")(DrainToy)

from repro.serve import ServeApp

state_dir, cache_dir, port_file, drain_timeout = sys.argv[2:6]
app = ServeApp(
    host="127.0.0.1",
    port=0,
    state_dir=state_dir,
    cache_dir=cache_dir,
    dispatchers=1,
    drain_timeout=float(drain_timeout),
    quiet=False,
)

_original_start = app.start


async def start_and_publish_port():
    await _original_start()
    pathlib.Path(port_file).write_text(str(app.port))


app.start = start_and_publish_port
sys.exit(app.run())
"""


def _drain_spec(values=(1, 2, 3), delay=0.5):
    return {
        "experiment": "drain-toy",
        "options": {
            "drain_toy_values": list(values),
            "drain_toy_delay": delay,
        },
    }


def _request(port, method, path, body=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    payload = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if payload else {}
    try:
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


@pytest.fixture
def server_factory(tmp_path):
    script = tmp_path / "drain_server.py"
    script.write_text(SERVER_SCRIPT)
    started = []

    def start(name, state_dir, cache_dir, drain_timeout=20.0):
        port_file = tmp_path / f"{name}.port"
        port_file.unlink(missing_ok=True)
        process = subprocess.Popen(
            [
                sys.executable, str(script), SRC_DIR,
                str(state_dir), str(cache_dir), str(port_file),
                str(drain_timeout),
            ],
            stderr=subprocess.PIPE,
            text=True,
        )
        started.append(process)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if port_file.is_file() and port_file.read_text().strip():
                return process, int(port_file.read_text())
            if process.poll() is not None:
                raise AssertionError(
                    f"server died on startup: {process.stderr.read()}"
                )
            time.sleep(0.05)
        raise AssertionError("server never published its port")

    yield start
    for process in started:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def _wait_running(port, status_url, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _status, doc = _request(port, "GET", status_url)
        if doc["state"] in ("running", "done", "failed"):
            return doc
        time.sleep(0.02)
    raise AssertionError("job never started running")


def test_sigterm_drains_inflight_job_and_exits_zero(
    tmp_path, server_factory
):
    state_dir, cache_dir = tmp_path / "state", tmp_path / "cache"
    process, port = server_factory("one", state_dir, cache_dir)
    _status, body = _request(port, "POST", "/v1/jobs", _drain_spec())
    assert body["disposition"] == "queued"
    doc = _wait_running(port, body["status_url"])
    assert doc["state"] == "running"

    process.send_signal(signal.SIGTERM)
    process.wait(timeout=60)
    stderr = process.stderr.read()
    assert process.returncode == 0, stderr
    assert "drained all in-flight jobs" in stderr

    # The drain finished the job: a restarted service resumes nothing
    # and answers the same spec straight from the store.
    process2, port2 = server_factory("two", state_dir, cache_dir)
    _status, metrics = _request(port2, "GET", "/v1/metrics")
    assert metrics["counters"]["jobs_resumed"] == 0
    status, again = _request(port2, "POST", "/v1/jobs", _drain_spec())
    assert status == 200
    assert again["disposition"] == "cached"
    process2.send_signal(signal.SIGTERM)
    process2.wait(timeout=60)


def test_sigkilled_server_resumes_on_restart_byte_identically(
    tmp_path, server_factory
):
    state_dir, cache_dir = tmp_path / "state", tmp_path / "cache"
    process, port = server_factory("victim", state_dir, cache_dir)
    spec = _drain_spec(values=(1, 2, 3, 4), delay=0.5)
    _status, body = _request(port, "POST", "/v1/jobs", spec)
    doc = _wait_running(port, body["status_url"])
    assert doc["state"] == "running"
    # SIGKILL: no drain, no journal goodbye, a torn tail at worst.
    process.kill()
    process.wait(timeout=30)

    process2, port2 = server_factory("revived", state_dir, cache_dir)
    _status, metrics = _request(port2, "GET", "/v1/metrics")
    assert metrics["counters"]["jobs_resumed"] == 1
    _status, again = _request(port2, "POST", "/v1/jobs", spec)
    assert again["disposition"] in ("deduped", "cached")
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        _s, doc = _request(port2, "GET", again["status_url"])
        if doc["state"] in ("done", "failed"):
            break
        time.sleep(0.05)
    assert doc["state"] == "done"
    status, resumed_result = _request(port2, "GET", doc["result_url"])
    assert status == 200

    clean_process, clean_port = server_factory(
        "clean", tmp_path / "clean-state", tmp_path / "clean-cache"
    )
    _status, ref = _request(clean_port, "POST", "/v1/jobs", spec)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        _s, ref_doc = _request(clean_port, "GET", ref["status_url"])
        if ref_doc["state"] in ("done", "failed"):
            break
        time.sleep(0.05)
    assert ref_doc["state"] == "done"
    _status, reference_result = _request(
        clean_port, "GET", ref_doc["result_url"]
    )
    assert resumed_result == reference_result
    assert doc["result_sha256"] == ref_doc["result_sha256"]
