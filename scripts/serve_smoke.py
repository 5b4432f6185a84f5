#!/usr/bin/env python
"""CI smoke test for ``python -m repro serve``.

Boots the real server as a subprocess, submits a small job over HTTP,
and holds the service to its contract:

1. ``/v1/health`` answers while the server is coming up;
2. the submitted job runs to ``done`` and its result document downloads
   with a SHA-256 that matches both the response header and the bytes;
3. the served document is *byte-identical* to what a direct, in-process
   runner invocation of the same spec produces -- the service adds
   transport, not meaning;
4. a spec with a bad option value is refused with a ``400 bad-spec``
   whose detail is the very message ``run_all`` raises for that value;
5. the server leaks no child processes while idle;
6. SIGTERM produces a graceful exit with code 0.

Any violation exits nonzero (and says why), so the CI job fails loudly.
"""

import hashlib
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

EXPERIMENT = "table2"  # the cheapest full experiment (pure derivation)

#: The hierarchy-sweep round-trip: one cross-product design's cell batch
#: (its 7 strategy rows + its perf point) at smoke-sized trials, carried
#: entirely by the spec -- ``trials`` must lower onto the sweep's own
#: option and the declarative HierarchySpec payloads must survive the
#: worker boundary.
SWEEP_SPEC = {
    "experiment": "hierarchy_sweep",
    "trials": 2,
    "options": {"hierarchy_sweep_rsa_runs": 2},
    "filters": ["hierarchy_sweep/RF+SA/*", "hierarchy_sweep/perf/RF+SA"],
}

#: A seed option given a list: the service must refuse it up front, in
#: the runner's own words, instead of admitting cells that die later.
BAD_OPTION_SPEC = {"experiment": "attacks", "options": {"covert_seed": [1]}}


def fail(message: str):
    print(f"serve smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def http_json(method: str, url: str, payload=None, timeout=30):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, dict(response.headers), response.read()


def wait_for_health(base: str, process: subprocess.Popen, deadline: float):
    while time.monotonic() < deadline:
        if process.poll() is not None:
            fail(f"server exited early with code {process.returncode}")
        try:
            status, _headers, _body = http_json("GET", f"{base}/v1/health")
            if status == 200:
                return
        except (urllib.error.URLError, ConnectionError, OSError):
            pass
        time.sleep(0.2)
    fail("server never became healthy")


def expected_payload(spec_payload) -> bytes:
    """What a direct runner invocation of the same spec produces."""
    from repro.runner.cache import code_fingerprint
    from repro.runner.registry import (
        get_experiment,
        matches_filter,
        resolve_options,
    )
    from repro.runner.scheduler import InProcessExecutor
    from repro.serve.jobs import canonical_payload, parse_spec, result_document

    spec = parse_spec(spec_payload)
    experiment = get_experiment(spec.experiment)
    options = resolve_options(spec.options_dict, spec.experiment)
    all_units = experiment.units(options)
    if spec.filters:
        units = [
            unit for unit in all_units
            if matches_filter(unit, spec.filters)
        ]
    else:
        units = list(all_units)
    executor = InProcessExecutor()
    values = []
    for unit in units:
        outcome = executor.submit(unit)
        if outcome.failed:
            fail(f"direct run of {unit.ident} failed: {outcome.error}")
        values.append(outcome.value)
    code_version = code_fingerprint()
    complete = len(units) == len(all_units)
    document = result_document(
        spec=spec,
        content_hash=spec.content_hash(code_version),
        code_version=code_version,
        values=values,
        selected=len(units),
        full=len(all_units),
        assembled=(
            experiment.assemble(values, options) if complete else None
        ),
    )
    return canonical_payload(document)


def check_bad_option_refused(base: str) -> None:
    """POST a bad option; the 400 detail must be ``run_all``'s error."""
    from repro.runner import run_all

    try:
        run_all(
            filters=["attacks*"],
            options=BAD_OPTION_SPEC["options"],
            results_dir=tempfile.mkdtemp(prefix="serve-smoke-refused-"),
            progress=False,
        )
    except ValueError as error:
        expected = str(error)
    else:
        fail("run_all admitted a list as covert_seed")
    try:
        http_json("POST", f"{base}/v1/jobs", BAD_OPTION_SPEC)
    except urllib.error.HTTPError as error:
        status, body = error.code, json.loads(error.read())
    else:
        fail("the service admitted a list as covert_seed")
    if status != 400 or body.get("error") != "bad-spec":
        fail(f"bad option: want 400 bad-spec, got {status} {body}")
    if body.get("detail") != expected:
        fail(
            f"bad option: served detail {body.get('detail')!r} is not"
            f" run_all's {expected!r}"
        )
    print(f"serve smoke: bad option refused with run_all's words: {expected}")


def child_pids(pid: int):
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            return [int(field) for field in handle.read().split()]
    except OSError:
        return []


def run_job(base: str, spec_payload, label: str) -> bytes:
    """Submit a spec, poll to done, and fetch its sha-verified document."""
    status, _headers, body = http_json(
        "POST", f"{base}/v1/jobs", spec_payload
    )
    submitted = json.loads(body)
    if status != 202 or submitted.get("disposition") != "queued":
        fail(f"{label}: submit came back {status} {submitted}")
    print(f"serve smoke: {label} job {submitted['job_id']} queued"
          f" ({submitted['cells']} cells)")

    deadline = time.monotonic() + 120
    while True:
        if time.monotonic() > deadline:
            fail(f"{label}: job never finished")
        _status, _headers, body = http_json(
            "GET", base + submitted["status_url"]
        )
        job = json.loads(body)
        if job["state"] == "failed":
            fail(f"{label}: job failed: {job.get('error')}")
        if job["state"] == "done":
            break
        time.sleep(0.3)

    status, headers, payload = http_json("GET", base + job["result_url"])
    if status != 200:
        fail(f"{label}: result fetch came back {status}")
    digest = hashlib.sha256(payload).hexdigest()
    if digest != headers.get("X-Repro-Sha256"):
        fail(f"{label}: served bytes do not match the X-Repro-Sha256 header")
    if digest != job["result_sha256"]:
        fail(f"{label}: served bytes do not match the job's result_sha256")

    direct = expected_payload(spec_payload)
    if payload != direct:
        fail(
            f"{label}: served document differs from a direct runner"
            f" invocation (served sha {digest},"
            f" direct sha {hashlib.sha256(direct).hexdigest()})"
        )
    print(f"serve smoke: {label} result verified (sha256 {digest[:16]}...,"
          " byte-identical to the direct run)")
    return payload


def main() -> int:
    port = free_port()
    base = f"http://127.0.0.1:{port}"
    state_dir = tempfile.mkdtemp(prefix="serve-smoke-state-")
    cache_dir = tempfile.mkdtemp(prefix="serve-smoke-cache-")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", str(port),
            "--state-dir", state_dir, "--cache-dir", cache_dir,
        ],
        env={**os.environ, "PYTHONPATH": "src"},
    )
    try:
        wait_for_health(base, process, time.monotonic() + 30)
        print(f"serve smoke: healthy on {base}")

        run_job(base, {"experiment": EXPERIMENT}, EXPERIMENT)

        # The hierarchy-sweep spec round-trip: declarative HierarchySpec
        # payloads through the spec's trials knob and cell filters.
        payload = json.loads(run_job(base, SWEEP_SPEC, "hierarchy_sweep"))
        if payload["options"].get("hierarchy_sweep_trials") != 2:
            fail("hierarchy_sweep: trials did not lower onto the option")
        if payload["cells"]["selected"] != 8 or payload["cells"]["complete"]:
            fail(
                "hierarchy_sweep: expected the 8-cell RF+SA batch, got"
                f" {payload['cells']}"
            )

        check_bad_option_refused(base)

        leaked = child_pids(process.pid)
        if leaked:
            fail(f"server is holding child processes while idle: {leaked}")

        process.send_signal(signal.SIGTERM)
        try:
            returncode = process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            fail("server did not shut down within 15s of SIGTERM")
        if returncode != 0:
            fail(f"server exited {returncode} on SIGTERM (want graceful 0)")
        print("serve smoke: graceful shutdown, exit 0")
        print("serve smoke: OK")
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
