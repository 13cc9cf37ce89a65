"""The shared HTTP edge (:mod:`repro.net.edge`) over live sockets.

Every test takes the ``edge`` fixture and so runs against both the
broker and the analysis service: body limits and draining, the error
envelope, 503 while closing, 500 on an unexpected handler failure and
the socket options (``TCP_NODELAY``, the read timeout) are one
implementation and must behave identically on both servers.
"""

import json
import socket
import time

import pytest

from repro.net import REQUEST_ID_HEADER
from repro.net.edge import MAX_BODY_BYTES, JsonHandler

from .conftest import exchange


def assert_envelope(status, headers, doc, want_status, want_kind):
    assert status == want_status, doc
    assert doc["ok"] is False
    assert doc["kind"] == want_kind
    assert isinstance(doc["error"], str) and doc["error"]
    assert headers[REQUEST_ID_HEADER]


def assert_still_serving(edge, connection=None):
    """The server (and, given one, this kept-alive socket) still answers."""
    connection = connection or edge.connect()
    try:
        status, _, doc = exchange(connection, "GET", "/ping",
                                  headers=edge.auth)
        assert status == 200 and doc["ok"] is True
    finally:
        connection.close()


def declare_length(edge, length):
    """Send the body route's headers declaring ``length``, and no body."""
    method, path = edge.body_route
    connection = edge.connect()
    try:
        connection.putrequest(method, path)
        for name, value in edge.auth.items():
            connection.putheader(name, value)
        connection.putheader("Content-Length", length)
        connection.endheaders()
        response = connection.getresponse()
        return response.status, response.headers, json.loads(response.read())
    finally:
        connection.close()


class TestBodyDraining:
    def test_early_404_drains_large_body_and_keeps_the_connection(self, edge):
        """An error reply sent before the body is read must consume the
        body (not slam the socket shut): the client both receives the
        4xx — no RST racing a mid-upload close — and can reuse the
        connection for the next call."""
        connection = edge.connect()
        big_body = b"{" + b" " * (1 << 20) + b"}"  # 1 MiB of JSON
        status, headers, doc = exchange(
            connection, "POST", "/nowhere/at-all", body=big_body,
            headers=edge.auth,
        )
        assert_envelope(status, headers, doc, 404, "not-found")
        assert "unknown endpoint" in doc["error"]
        assert_still_serving(edge, connection)

    def test_unread_get_body_does_not_desync_the_connection(self, edge):
        """A GET handler never reads a body; the reply still drains it, or
        the next request on the socket would be parsed from its bytes."""
        connection = edge.connect()
        for path in ("/ping", edge.get_route):
            status, _, doc = exchange(
                connection, "GET", path, body=b'{"stray": "body"}',
                headers=edge.auth,
            )
            assert status == 200 and doc["ok"] is True
        assert_still_serving(edge, connection)


class TestKeepAliveHygiene:
    def test_repeated_unauthorized_posts_keep_clean_errors(self, edge):
        method, path = edge.body_route
        connection = edge.connect()
        for _ in range(3):  # same socket each time
            status, headers, doc = exchange(
                connection, method, path, body=b'{"payloads": [{}]}'
            )
            assert_envelope(status, headers, doc, 401, "unauthorized")
        assert_still_serving(edge, connection)

    def test_closing_server_answers_503_and_retires_the_socket(self, edge):
        connection = edge.connect()
        try:
            status, _, _ = exchange(connection, "GET", edge.get_route,
                                    headers=edge.auth)
            assert status == 200
            edge.server.close()  # the kept-alive handler thread lives on
            status, headers, doc = exchange(connection, "GET", edge.get_route,
                                            headers=edge.auth)
            assert_envelope(status, headers, doc, 503, "unavailable")
            assert "shutting down" in doc["error"]
            assert headers["Connection"] == "close"
        finally:
            connection.close()


class TestMalformedBodies:
    def test_deeply_nested_json_is_a_400(self, edge):
        method, path = edge.body_route
        connection = edge.connect()
        nested = b"[" * 100_000 + b"]" * 100_000
        status, headers, doc = exchange(connection, method, path,
                                        body=nested, headers=edge.auth)
        assert_envelope(status, headers, doc, 400, "bad-request")
        assert "nests too deeply" in doc["error"]
        assert_still_serving(edge, connection)

    def test_oversized_content_length_is_a_413(self, edge):
        """The limit is checked against the declared length: the server
        reads none of the body and retires the connection."""
        status, headers, doc = declare_length(edge, str(MAX_BODY_BYTES + 1))
        assert_envelope(status, headers, doc, 413, "payload-too-large")
        assert headers["Connection"] == "close"
        assert_still_serving(edge)

    @pytest.mark.parametrize("length", ["-1", "lots"])
    def test_undeclarable_content_length_is_a_400(self, edge, length):
        status, headers, doc = declare_length(edge, length)
        assert_envelope(status, headers, doc, 400, "bad-request")
        assert headers["Connection"] == "close"
        assert_still_serving(edge)


class TestInternalErrors:
    def test_unexpected_handler_failure_is_a_500_envelope(
        self, edge, monkeypatch
    ):
        method, path = edge.break_a_route(monkeypatch, RuntimeError("boom"))
        connection = edge.connect()
        status, headers, doc = exchange(
            connection, method, path,
            body=b"{}" if method == "POST" else None, headers=edge.auth,
        )
        assert_envelope(status, headers, doc, 500, "internal")
        assert doc["error"] == f"internal {edge.kind} error: boom"
        assert_still_serving(edge, connection)


#: A socket timeout short enough for a test to outwait.
SHORT_TIMEOUT = 0.3


class TestSockets:
    def test_accepted_sockets_run_with_tcp_nodelay(self, edge, monkeypatch):
        """Without TCP_NODELAY each kept-alive reply's body waits ~40 ms
        for the client's delayed ACK of its headers."""
        seen = []
        setup = JsonHandler.setup

        def recording_setup(handler):
            setup(handler)
            seen.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            ))

        monkeypatch.setattr(JsonHandler, "setup", recording_setup)
        assert_still_serving(edge)
        assert seen and all(seen)

    def test_stalled_body_is_a_408_that_closes(self, edge, monkeypatch):
        monkeypatch.setattr(JsonHandler, "timeout", SHORT_TIMEOUT)
        method, path = edge.body_route
        connection = edge.connect()
        try:
            connection.putrequest(method, path)
            for name, value in edge.auth.items():
                connection.putheader(name, value)
            connection.putheader("Content-Length", "100")
            connection.endheaders(b'{"partial": ')  # and then nothing
            response = connection.getresponse()
            status, headers = response.status, response.headers
            doc = json.loads(response.read())
        finally:
            connection.close()
        assert_envelope(status, headers, doc, 408, "timeout")
        assert headers["Connection"] == "close"
        assert_still_serving(edge)

    def test_idle_kept_alive_socket_is_closed_quietly(self, edge, monkeypatch):
        monkeypatch.setattr(JsonHandler, "timeout", SHORT_TIMEOUT)
        with socket.create_connection(
            (edge.server.host, edge.server.port), timeout=10
        ) as raw:
            headers = "".join(
                f"{name}: {value}\r\n" for name, value in edge.auth.items()
            )
            raw.sendall(
                f"GET /ping HTTP/1.1\r\nHost: x\r\n{headers}\r\n".encode()
            )
            reply = b""
            while not reply.endswith(b"}"):  # the end of the JSON body
                chunk = raw.recv(65536)
                assert chunk, reply
                reply += chunk
            assert reply.startswith(b"HTTP/1.1 200")
            started = time.monotonic()
            assert raw.recv(65536) == b""  # closed, with nothing sent
            assert time.monotonic() - started < 5
        assert_still_serving(edge)
