"""Tests for structured access logging on the broker and the service."""

import io
import json
import time

from repro.net import AccessLog, REQUEST_ID_HEADER
from repro.net.accesslog import new_request_id

from .conftest import exchange


class TestAccessLog:
    def test_one_json_line_per_record(self):
        stream = io.StringIO()
        log = AccessLog(stream, clock=lambda: 1000.0)
        log.record(method="GET", route="/ping", status=200,
                   latency_ms=1.234, request_id="abc123", tenant=None)
        log.record(method="POST", route="/v1/jobs", status=202,
                   latency_ms=10.5, request_id="def456", tenant="acme")
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert lines == [
            {"ts": 1000.0, "request_id": "abc123", "tenant": None,
             "method": "GET", "route": "/ping", "status": 200,
             "latency_ms": 1.23},
            {"ts": 1000.0, "request_id": "def456", "tenant": "acme",
             "method": "POST", "route": "/v1/jobs", "status": 202,
             "latency_ms": 10.5},
        ]

    def test_broken_stream_never_raises(self):
        class Broken:
            def write(self, text):
                raise OSError("disk full")

            def flush(self):
                raise OSError("disk full")

        log = AccessLog(Broken())
        log.record(method="GET", route="/ping", status=200,
                   latency_ms=0.1, request_id="abc123")

    def test_request_ids_are_fresh(self):
        ids = {new_request_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(request_id) == 12 for request_id in ids)


def await_log_lines(edge, count, timeout=5.0):
    """The access log once it holds ``count`` lines: each line is written
    just after its reply is flushed, so the client can get there first."""
    deadline = time.monotonic() + timeout
    while len(edge.log_lines()) < count and time.monotonic() < deadline:
        time.sleep(0.01)
    return edge.log_lines()


class TestServerAccessLog:
    def test_every_request_is_logged_and_id_echoed(self, edge):
        submit_path, submit_body, submit_status = edge.submit
        calls = [
            ("GET", "/ping", None, 200),
            ("POST", submit_path, json.dumps(submit_body).encode(),
             submit_status),
            ("GET", edge.get_route, None, 200),
        ]
        connection = edge.connect()
        echoed = []
        try:
            for method, path, body, want in calls:
                status, headers, _ = exchange(connection, method, path,
                                              body=body, headers=edge.auth)
                assert status == want
                echoed.append(headers[REQUEST_ID_HEADER])
        finally:
            connection.close()
        lines = await_log_lines(edge, len(calls))
        assert [(line["method"], line["route"], line["status"])
                for line in lines] == [
            (method, path, want) for method, path, _, want in calls
        ]
        assert all(line["latency_ms"] >= 0 for line in lines)
        assert [line["request_id"] for line in lines] == echoed
        assert all(len(line["request_id"]) == 12 for line in lines)
        # /ping is unauthenticated everywhere; the broker has no tenants
        # (its one token is shared), so its field is present but null.
        assert [line["tenant"] for line in lines] == [
            None, edge.tenant, edge.tenant
        ]

    def test_failed_requests_are_logged_too(self, edge):
        connection = edge.connect()
        try:
            status, headers, _ = exchange(connection, "GET", "/nonsense",
                                          headers=edge.auth)
        finally:
            connection.close()
        assert status == 404
        (line,) = await_log_lines(edge, 1)
        assert (line["method"], line["route"], line["status"]) == (
            "GET", "/nonsense", 404)
        assert line["tenant"] == edge.tenant
        # The response carries the id the log line recorded.
        assert line["request_id"] == headers[REQUEST_ID_HEADER]
