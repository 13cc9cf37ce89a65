"""``GET /metrics`` on both servers, trace seeding, and ``atcd obs dump``.

In-process caveat: the worker thread in these tests shares the process
registry with the server, so counter *values* on /metrics may include
both the live registry and the worker's published snapshot — assertions
here check presence and non-zeroness, never exact fleet totals (those
are covered per-layer in test_metrics.py and the queue/store suites).
"""

import io
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.attacktree import serialization
from repro.attacktree.catalog import factory
from repro.cli import main
from repro.distributed import SqliteQueue, Worker
from repro.net import BrokerServer
from repro.net.accesslog import AccessLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.promtext import CONTENT_TYPE, parse
from repro.obs.scrape import render_fleet_metrics
from repro.service import ServiceServer, Tenant, TenantRegistry

MODEL = serialization.to_dict(factory())
ACME_KEY = "acme-key-12345678"


def fetch(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, dict(response.headers), response.read().decode()


@pytest.fixture
def broker(tmp_path):
    with BrokerServer(
        queue_path=str(tmp_path / "queue.sqlite"),
        store_path=str(tmp_path / "store.sqlite"),
    ) as server:
        server.start()
        yield server


@pytest.fixture
def service(tmp_path):
    registry = TenantRegistry([Tenant(name="acme", key=ACME_KEY)])
    log_stream = io.StringIO()
    with ServiceServer(
        SqliteQueue(str(tmp_path / "service.queue")), registry, poll_seconds=0.01,
        access_log=AccessLog(log_stream),
    ) as server:
        server.log_stream = log_stream
        server.start()
        yield server


class TestFleetRender:
    """``render_fleet_metrics`` reads the one queue it is given, if any."""

    def test_one_queue_sets_the_task_gauge(self, tmp_path):
        with SqliteQueue(str(tmp_path / "queue.sqlite")) as queue:
            queue.submit([{"kind": "noop"}, {"kind": "noop"}])
            body = render_fleet_metrics(queue=queue, registry=MetricsRegistry())
        tasks = parse(body)["atcd_queue_tasks"]
        assert tasks.value(state="pending") == 2
        assert tasks.value(state="done") == 0

    def test_no_queue_leaves_the_task_gauge_empty(self):
        body = render_fleet_metrics(registry=MetricsRegistry())
        assert parse(body)["atcd_queue_tasks"].samples == []


class TestBrokerMetrics:
    def test_metrics_endpoint_serves_prometheus_text(self, broker):
        status, headers, body = fetch(broker.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE
        families = parse(body)
        # The full catalog is present even before any traffic...
        for name in ("atcd_queue_ops_total", "atcd_store_lookups_total",
                     "atcd_solve_seconds", "atcd_http_requests_total"):
            assert name in families, name
        # ...and the scrape-time gauges carry the (empty) queue state.
        assert families["atcd_queue_tasks"].value(state="pending") == 0

    def test_requests_and_queue_ops_are_counted(self, broker):
        from repro.net import HttpQueue

        with HttpQueue(broker.url) as queue:
            queue.submit([{"kind": "noop"}])
        _, _, body = fetch(broker.url + "/metrics")
        families = parse(body)
        assert families["atcd_queue_ops_total"].value(op="submit") >= 1
        assert families["atcd_http_requests_total"].value(
            server="broker", route="/queue/submit", status="200"
        ) >= 1
        assert families["atcd_queue_tasks"].value(state="pending") == 1
        assert families["atcd_http_request_seconds"].value(
            "atcd_http_request_seconds_count",
            server="broker", route="/queue/submit",
        ) >= 1

    def test_token_protected_broker_protects_metrics(self, tmp_path):
        with BrokerServer(
            queue_path=str(tmp_path / "q.sqlite"), token="sesame"
        ) as server:
            server.start()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(server.url + "/metrics")
            assert excinfo.value.code == 401
            status, _, body = fetch(
                server.url + "/metrics",
                headers={"Authorization": "Bearer sesame"},
            )
            assert status == 200 and "atcd_queue_ops_total" in body

    def test_obs_dump_cli_prints_the_scrape(self, broker, capsys):
        assert main(["obs", "dump", broker.url]) == 0
        assert "# TYPE atcd_queue_ops_total counter" in capsys.readouterr().out
        assert main(["obs", "dump", broker.url, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["atcd_queue_tasks"]["type"] == "gauge"



class TestServiceMetrics:
    def _submit(self, service, n=2):
        body = json.dumps({
            "model": MODEL,
            "requests": [{"problem": "cdpf"}] * n,
        }).encode()
        request = urllib.request.Request(
            service.url + "/v1/jobs", data=body,
            headers={"X-Api-Key": ACME_KEY, "Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())["job"]

    def test_metrics_is_open_like_ping_and_counts_jobs(self, service):
        self._submit(service)
        status, headers, body = fetch(service.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE
        families = parse(body)
        assert families["atcd_service_jobs_total"].value(tenant="acme") == 1
        assert families["atcd_service_requests_total"].value(tenant="acme") == 2
        assert families["atcd_http_requests_total"].value(
            server="service", route="/v1/jobs", status="202"
        ) == 1
        assert families["atcd_queue_tasks"].value(state="pending") == 2

    def test_worker_executed_solves_reach_the_service_scrape(self, service):
        job = self._submit(service)
        worker = Worker(service.queue, worker_id="w", poll_seconds=0.01)
        thread = threading.Thread(target=worker.run)
        thread.start()
        thread.join(timeout=60)
        assert service.queue.drained()
        _, _, body = fetch(service.url + "/metrics")
        families = parse(body)
        # The solves happened in the worker, not the server: they are
        # visible here through the worker's published snapshot.
        assert families["atcd_solve_seconds"].value(
            "atcd_solve_seconds_count", backend="bottom-up", problem="cdpf"
        ) >= 2
        assert families["atcd_worker_tasks_total"].value(
            outcome="completed"
        ) >= 2
        assert job["job_id"]

    def test_quota_rejections_are_counted_by_tenant(self, tmp_path):
        registry = TenantRegistry([
            Tenant(name="tiny", key="tiny-key-12345678", max_in_flight=1),
        ])
        with ServiceServer(
            SqliteQueue(str(tmp_path / "service.queue")), registry, poll_seconds=0.01
        ) as service:
            service.start()
            body = json.dumps({
                "model": MODEL, "requests": [{"problem": "cdpf"}],
            }).encode()

            def submit():
                request = urllib.request.Request(
                    service.url + "/v1/jobs", data=body,
                    headers={"X-Api-Key": "tiny-key-12345678"},
                )
                return urllib.request.urlopen(request, timeout=30)

            submit()  # fills the single in-flight slot
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                submit()
            assert excinfo.value.code == 429
            _, _, text = fetch(service.url + "/metrics")
            assert parse(text)["atcd_service_rejections_total"].value(
                tenant="tiny", kind="quota"
            ) == 1


class TestTraceSeeding:
    def test_client_request_id_seeds_the_trace_and_access_log(self, service):
        status, headers, _ = fetch(
            service.url + "/ping",
            headers={"X-Request-Id": "feedfacefeed"},
        )
        assert status == 200
        # The client's id is honoured (echoed, not replaced)...
        assert headers["X-Request-Id"] == "feedfacefeed"
        time.sleep(0.05)
        lines = [json.loads(l)
                 for l in service.log_stream.getvalue().splitlines()]
        entry = [l for l in lines if l["route"] == "/ping"][-1]
        # ...and doubles as the trace id in the access log.
        assert entry["request_id"] == "feedfacefeed"
        assert entry["trace_id"] == "feedfacefeed"

    def test_trace_context_header_wins_over_request_id(self, service):
        fetch(
            service.url + "/ping",
            headers={"X-Trace-Context": f"{'a' * 32}-{'b' * 16}"},
        )
        time.sleep(0.05)
        lines = [json.loads(l)
                 for l in service.log_stream.getvalue().splitlines()]
        assert [l for l in lines if l["route"] == "/ping"][-1]["trace_id"] == "a" * 32

    def test_untraced_requests_log_no_trace_id(self, service):
        fetch(service.url + "/ping")
        time.sleep(0.05)
        lines = [json.loads(l)
                 for l in service.log_stream.getvalue().splitlines()]
        assert "trace_id" not in [
            l for l in lines if l["route"] == "/ping"
        ][-1]
