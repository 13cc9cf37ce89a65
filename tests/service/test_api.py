"""Tests for the HTTP surface of the analysis service.

Every test drives a real :class:`ServiceServer` over a sqlite queue with
plain ``urllib`` — the same path an external client walks.  Where a
job must make progress, a background :class:`Worker` thread drains the
queue exactly as ``atcd dist worker`` would.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.attacktree import serialization
from repro.attacktree.catalog import factory
from repro.distributed import SqliteQueue, Worker
from repro.service import (
    API_KEY_HEADER,
    SERVICE_NAME,
    SERVICE_VERSION,
    ServiceServer,
    Tenant,
    TenantRegistry,
)
from repro.workloads import ScenarioSpec, expand

from ..conftest import CountingQueue

MODEL = serialization.to_dict(factory())
SRC = str(Path(__file__).resolve().parents[2] / "src")

ACME_KEY = "acme-key-12345678"
GLOBEX_KEY = "globex-key-12345678"


@pytest.fixture
def server(tmp_path):
    registry = TenantRegistry([
        Tenant(name="acme", key=ACME_KEY),
        Tenant(name="globex", key=GLOBEX_KEY, max_in_flight=2),
    ])
    with ServiceServer(
        SqliteQueue(str(tmp_path / "api.queue")), registry, poll_seconds=0.01,
    ) as service:
        service.start()
        yield service


@pytest.fixture
def worker(server):
    """A live worker attached to the server's queue, like a fleet member."""
    runner = Worker(
        server.queue, worker_id="w", poll_seconds=0.01,
        exit_when_drained=False,
    )
    thread = threading.Thread(target=runner.run, daemon=True)
    thread.start()
    yield runner
    runner.stop()
    thread.join(timeout=10.0)


def call(server, route, method="GET", key=ACME_KEY, body=None, raw=None):
    """One HTTP round trip; returns (status, headers, parsed body)."""
    data = raw
    if body is not None:
        data = json.dumps(body).encode("utf-8")
    if data is not None and method == "GET":
        method = "POST"
    request = urllib.request.Request(
        server.url + route, data=data, method=method,
    )
    if key is not None:
        request.add_header(API_KEY_HEADER, key)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (
                response.status,
                dict(response.headers),
                json.loads(response.read().decode("utf-8")),
            )
    except urllib.error.HTTPError as error:
        payload = error.read().decode("utf-8")
        return error.code, dict(error.headers), json.loads(payload)


def submit(server, key=ACME_KEY, requests=None, **fields):
    body = {
        "model": MODEL,
        "requests": requests
        if requests is not None
        else [{"problem": "cdpf"}, {"problem": "dgc", "budget": 2.0}],
    }
    body.update(fields)
    return call(server, "/v1/jobs", method="POST", key=key, body=body)


def await_state(server, job_id, want, key=ACME_KEY, tries=500):
    for _ in range(tries):
        status, _, doc = call(server, f"/v1/jobs/{job_id}", key=key)
        assert status == 200
        if doc["job"]["state"] == want:
            return doc["job"]
    raise AssertionError(f"job never reached {want!r}: {doc}")


class TestAuth:
    def test_ping_needs_no_key(self, server):
        status, _, doc = call(server, "/ping", key=None)
        assert status == 200
        assert doc["server"] == SERVICE_NAME
        assert doc["service_version"] == SERVICE_VERSION

    def test_missing_key_is_401(self, server):
        status, _, doc = call(server, "/v1/jobs", key=None)
        assert status == 401
        assert doc["kind"] == "unauthorized"
        assert API_KEY_HEADER in doc["error"]

    def test_unknown_key_is_403(self, server):
        status, _, doc = call(server, "/v1/jobs", key="wrong-key-12345678")
        assert status == 403
        assert doc["kind"] == "forbidden"

    def test_prefix_of_a_real_key_is_403(self, server):
        status, _, doc = call(server, "/v1/jobs", key=ACME_KEY[:-1])
        assert status == 403


class TestValidationAtTheEdge:
    def test_non_json_body_is_400(self, server):
        status, _, doc = call(
            server, "/v1/jobs", method="POST", raw=b"{not json",
        )
        assert status == 400
        assert doc["kind"] == "bad-request"

    def test_non_object_body_is_400(self, server):
        status, _, doc = call(server, "/v1/jobs", method="POST", body=[1, 2])
        assert status == 400
        assert "JSON object" in doc["error"]

    def test_unknown_job_fields_are_400(self, server):
        status, _, doc = submit(server, priority="high")
        assert status == 400
        assert doc["kind"] == "validation"
        assert "priority" in doc["error"]

    def test_bad_request_in_batch_names_the_index(self, server):
        status, _, doc = submit(
            server, requests=[{"problem": "cdpf"}, {"problem": "dgc"}],
        )
        assert status == 400
        assert doc["kind"] == "validation"
        assert doc["index"] == 1
        assert "budget" in doc["error"]

    @pytest.mark.parametrize("request_doc", [
        {"problem": "dgc", "budget": float("nan")},
        {"problem": "cgd", "threshold": float("nan")},
    ])
    def test_nan_parameter_is_400_and_enqueues_nothing(self, server, request_doc):
        # json.dumps writes NaN, which the server's json.loads accepts.
        status, _, doc = submit(server, requests=[{"problem": "cdpf"}, request_doc])
        assert status == 400
        assert doc["kind"] == "validation"
        assert doc["index"] == 1
        assert "NaN" in doc["error"]
        assert call(server, "/v1/jobs")[2]["jobs"] == []
        assert sum(server.queue.counts().values()) == 0

    def test_bad_model_is_400_with_field(self, server):
        status, _, doc = call(
            server, "/v1/jobs", method="POST",
            body={"model": 7, "requests": [{"problem": "cdpf"}]},
        )
        assert status == 400
        assert doc["field"] == "model"

    def test_model_beyond_enumerative_table_limit_is_400(self, server):
        # Auto-resolution refuses a 17-BAS probabilistic DAG (per-attack
        # enumeration would run for many minutes) before anything is enqueued.
        spec = ScenarioSpec(
            family="shared-bas", shape="dag", setting="probabilistic", sizes=(17,)
        )
        model = serialization.to_dict(expand(spec)[0].model)
        status, _, doc = submit(server, model=model, requests=[{"problem": "cedpf"}])
        assert status == 400
        assert doc["kind"] == "validation"
        assert "17 BASs exceed" in doc["error"]
        assert call(server, "/v1/jobs")[2]["jobs"] == []

    def test_rejected_batch_leaves_no_job_behind(self, server):
        submit(server, requests=[{"problem": "nonsense"}])
        status, _, doc = call(server, "/v1/jobs")
        assert status == 200
        assert doc["jobs"] == []

    def test_unknown_endpoint_is_404(self, server):
        for route, method in (
            ("/v1/nonsense", "GET"),
            ("/v1/jobs/x/nonsense", "GET"),
            ("/v1/jobs/x/results/extra", "GET"),
            ("/v1/nonsense", "POST"),
        ):
            status, _, doc = call(server, route, method=method)
            assert status == 404
            assert doc["kind"] == "not-found"


class TestJobLifecycle:
    def test_submit_poll_results(self, server, worker):
        status, _, doc = submit(server)
        assert status == 202
        assert doc["ok"] is True
        job = doc["job"]
        assert job["state"] in ("queued", "running", "done")
        assert job["count"] == 2

        final = await_state(server, job["job_id"], "done")
        assert final["completed"] == 2

        status, _, doc = call(server, f"/v1/jobs/{job['job_id']}/results")
        assert status == 200
        rows = doc["results"]
        assert [row["index"] for row in rows] == [0, 1]
        assert all(row["state"] == "done" for row in rows)
        assert rows[1]["result"]["value"] == 200.0

    def test_jobs_are_listed_in_submission_order(self, server):
        ids = [submit(server, name=f"j{i}")[2]["job"]["job_id"]
               for i in range(3)]
        status, _, doc = call(server, "/v1/jobs")
        assert status == 200
        assert [job["job_id"] for job in doc["jobs"]] == ids
        assert [job["name"] for job in doc["jobs"]] == ["j0", "j1", "j2"]

    def test_cancel_is_effective_and_idempotent(self, server):
        _, _, doc = submit(server)
        job_id = doc["job"]["job_id"]
        status, _, doc = call(
            server, f"/v1/jobs/{job_id}/cancel", method="POST",
        )
        assert status == 200
        assert doc["job"]["state"] == "cancelled"
        status, _, doc = call(
            server, f"/v1/jobs/{job_id}/cancel", method="POST",
        )
        assert status == 200
        assert doc["job"]["state"] == "cancelled"

    def test_stream_emits_results_then_an_end_line(self, server, worker):
        _, _, doc = submit(server)
        job_id = doc["job"]["job_id"]
        request = urllib.request.Request(
            f"{server.url}/v1/jobs/{job_id}/stream",
        )
        request.add_header(API_KEY_HEADER, ACME_KEY)
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == "application/x-ndjson"
            lines = [
                json.loads(line)
                for line in response.read().decode("utf-8").splitlines()
            ]
        assert lines[-1]["event"] == "end"
        assert lines[-1]["state"] == "done"
        results = [line for line in lines if line["event"] == "result"]
        assert sorted(line["index"] for line in results) == [0, 1]

    def test_each_stream_poll_reads_the_job_once(self, tmp_path):
        """A poll reads the descriptor and the job's tasks once each (by
        id), not once for the status and again for the rows."""
        queue = CountingQueue(SqliteQueue(str(tmp_path / "api.queue")))
        registry = TenantRegistry([Tenant(name="acme", key=ACME_KEY)])
        with ServiceServer(
            queue, registry, poll_seconds=0.01, stream_timeout_seconds=0.2,
        ) as service:
            service.start()
            _, _, doc = submit(service)
            job_id = doc["job"]["job_id"]
            queue.calls.clear()
            request = urllib.request.Request(
                f"{service.url}/v1/jobs/{job_id}/stream",
            )
            request.add_header(API_KEY_HEADER, ACME_KEY)
            with urllib.request.urlopen(request, timeout=30) as response:
                lines = response.read().decode("utf-8").splitlines()
        assert json.loads(lines[-1])["event"] == "timeout"  # nothing ran
        descriptor_reads = [
            call for call in queue.calls
            if call == ("get_meta", f"job:acme:{job_id}")
        ]
        task_reads = [call for call in queue.calls if call[0] == "tasks"]
        assert len(descriptor_reads) >= 2  # several polls were made
        assert len(task_reads) == len(descriptor_reads)
        assert all(call[2] is not None for call in task_reads)
        assert len(queue.calls) == 2 * len(task_reads)

    def test_stream_of_unknown_job_is_404(self, server):
        status, _, doc = call(server, "/v1/jobs/nope/stream")
        assert status == 404


class TestTenancyOverHttp:
    def test_foreign_job_ids_do_not_exist(self, server):
        _, _, doc = submit(server, key=ACME_KEY)
        job_id = doc["job"]["job_id"]
        for route, method in (
            (f"/v1/jobs/{job_id}", "GET"),
            (f"/v1/jobs/{job_id}/results", "GET"),
            (f"/v1/jobs/{job_id}/stream", "GET"),
            (f"/v1/jobs/{job_id}/cancel", "POST"),
        ):
            status, _, doc = call(server, route, method=method,
                                  key=GLOBEX_KEY)
            assert status == 404, route
            assert doc["kind"] == "not-found"
        status, _, doc = call(server, "/v1/jobs", key=GLOBEX_KEY)
        assert doc["jobs"] == []

    def test_in_flight_cap_answers_429_with_retry_after(self, server):
        # globex is capped at 2 in-flight requests.
        status, _, _ = submit(
            server, key=GLOBEX_KEY,
            requests=[{"problem": "cdpf"}, {"problem": "cdpf"}],
        )
        assert status == 202
        status, headers, doc = submit(
            server, key=GLOBEX_KEY, requests=[{"problem": "cdpf"}],
        )
        assert status == 429
        assert doc["kind"] == "quota"
        assert int(headers["Retry-After"]) >= 1
        assert doc["retry_after_seconds"] > 0
        # acme is unaffected by globex's cap.
        assert submit(server, key=ACME_KEY)[0] == 202

    def test_cancelling_frees_the_cap(self, server):
        _, _, doc = submit(
            server, key=GLOBEX_KEY,
            requests=[{"problem": "cdpf"}, {"problem": "cdpf"}],
        )
        call(server, f"/v1/jobs/{doc['job']['job_id']}/cancel",
             method="POST", key=GLOBEX_KEY)
        status, _, _ = submit(
            server, key=GLOBEX_KEY, requests=[{"problem": "cdpf"}],
        )
        assert status == 202

    def test_rate_limited_tenant_gets_429(self, tmp_path):
        registry = TenantRegistry([
            Tenant(name="acme", key=ACME_KEY, rate_per_second=0.001,
                   burst=2.0),
        ])
        with ServiceServer(SqliteQueue(str(tmp_path / "api.queue")), registry) as service:
            service.start()
            assert submit(service, requests=[{"problem": "cdpf"}] * 2)[0] \
                == 202
            status, headers, doc = submit(
                service, requests=[{"problem": "cdpf"}],
            )
            assert status == 429
            assert doc["kind"] == "rate-limit"
            assert "Retry-After" in headers


def _worker_pids(queue_path):
    """Pids of live ``atcd dist worker`` processes polling ``queue_path``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                argv = handle.read().decode("utf-8", "replace").split("\0")
        except OSError:
            continue
        if "worker" in argv and queue_path in argv:
            pids.append(int(entry))
    return pids


def _spawn_cli(*argv):
    """Start ``python -m repro.cli ARGV`` and return it once it has printed
    its URL line: ``(process, url)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("ATCD_BROKER_TOKEN", None)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    line = process.stdout.readline()
    url = next((word for word in line.split() if word.startswith("http://")), None)
    assert url, f"{argv[0]} printed no URL: {line!r}"
    return process, url.rstrip(",")


def _stop(process):
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc to find workers")
def test_stopped_api_service_leaves_no_worker_behind(tmp_path):
    """``atcd api --workers 1`` stops its fleet supervisor before the fleet.

    Against a broker queue the supervisor can still read queue counts after
    the service closes; were it to tick after the fleet is terminated, it
    would respawn a keep-alive worker that outlives the service.
    """
    keys = tmp_path / "keys.json"
    keys.write_text(json.dumps({"tenants": [{"name": "acme", "key": ACME_KEY}]}))
    broker, queue = _spawn_cli(
        "serve", "--queue", str(tmp_path / "broker.queue"), "--port", "0"
    )
    api = None
    try:
        api, _ = _spawn_cli(
            "api", "--queue", queue, "--keys", str(keys), "--port", "0",
            "--workers", "1",
        )
        deadline = time.monotonic() + 30.0
        while not _worker_pids(queue):
            assert time.monotonic() < deadline, "the fleet never started"
            time.sleep(0.05)
        # Stop between two supervisor ticks (they come every 2 s).
        time.sleep(1.0)
        api.send_signal(signal.SIGTERM)
        assert api.wait(timeout=30) == 0
        assert _worker_pids(queue) == []
    finally:
        if api is not None:
            _stop(api)
        for pid in _worker_pids(queue):
            os.kill(pid, signal.SIGKILL)
        _stop(broker)
