"""The ``edge`` fixture: each HTTP server behind one test-facing shape.

Tests of the shared request plumbing (:mod:`repro.net.edge`) take
``edge`` and run once against the broker and once against the analysis
service, each live on a loopback port with auth switched on and an
in-memory access log.
"""

import http.client
import io
import json

import pytest

from repro.attacktree import serialization
from repro.attacktree.catalog import factory
from repro.distributed import SqliteQueue
from repro.net import AccessLog, BrokerServer
from repro.service import API_KEY_HEADER, ServiceServer, Tenant, TenantRegistry

BROKER_TOKEN = "t0ken"
ACME_KEY = "acme-key-12345678"


class Edge:
    """One served surface plus the routes the edge tests exercise.

    ``body_route`` is a ``(method, path)`` whose handler parses a JSON
    body; ``get_route`` is a GET answering 200 given ``auth``;
    ``submit`` is a ``(path, body, status)`` POST that enqueues work and
    succeeds with ``status`` given ``auth``; ``tenant`` is what the
    access log records for an authenticated call.
    """

    def __init__(self, kind, server, log, auth, body_route, get_route,
                 submit, tenant):
        self.kind = kind
        self.server = server
        self.log = log
        self.auth = auth
        self.body_route = body_route
        self.get_route = get_route
        self.submit = submit
        self.tenant = tenant

    def connect(self):
        return http.client.HTTPConnection(
            self.server.host, self.server.port, timeout=30
        )

    def break_a_route(self, monkeypatch, error):
        """Make one authenticated route's backend call raise ``error``;
        returns that route's ``(method, path)``."""
        def boom(*args, **kwargs):
            raise error

        if self.kind == "broker":
            monkeypatch.setattr(self.server.queue, "counts", boom)
            return self.body_route
        monkeypatch.setattr(self.server.jobs, "list_jobs", boom)
        return "GET", self.get_route

    def log_lines(self):
        return [json.loads(line) for line in self.log.getvalue().splitlines()]


def exchange(connection, method, path, body=None, headers=None):
    """One request on a (possibly kept-alive) connection: returns
    ``(status, headers, parsed JSON body)``."""
    connection.request(method, path, body=body, headers=headers or {})
    response = connection.getresponse()
    return response.status, response.headers, json.loads(response.read())


@pytest.fixture(params=["broker", "service"])
def edge(request, tmp_path):
    log = io.StringIO()
    if request.param == "broker":
        server = BrokerServer(
            queue_path=str(tmp_path / "q.sqlite"), token=BROKER_TOKEN,
            access_log=AccessLog(log),
        )
        surface = Edge(
            "broker", server, log,
            auth={"Authorization": f"Bearer {BROKER_TOKEN}"},
            body_route=("POST", "/queue/counts"), get_route="/ping",
            submit=("/queue/submit", {"payloads": [{"kind": "t"}]}, 200),
            tenant=None,
        )
    else:
        server = ServiceServer(
            SqliteQueue(str(tmp_path / "api.queue")),
            TenantRegistry([Tenant(name="acme", key=ACME_KEY)]),
            access_log=AccessLog(log),
        )
        surface = Edge(
            "service", server, log,
            auth={API_KEY_HEADER: ACME_KEY},
            body_route=("POST", "/v1/jobs"),
            get_route="/v1/jobs",
            submit=("/v1/jobs", {
                "model": serialization.to_dict(factory()),
                "requests": [{"problem": "cdpf"}],
            }, 202),
            tenant="acme",
        )
    with server:
        server.start()
        yield surface
