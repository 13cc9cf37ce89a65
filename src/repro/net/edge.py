"""The one HTTP edge under both servers: request plumbing and lifecycle.

The broker (``atcd serve``, :mod:`repro.net.server`) and the analysis
service (``atcd api``, :mod:`repro.service.api`) are both a threading
:mod:`http.server` speaking JSON.  Everything they share lives here, so
a fix lands once:

:class:`JsonHandler`
    Runs each request under a request id and trace context (an
    ``http.request`` span for traced callers), counts it in
    ``atcd_http_requests_total`` *before* the reply is flushed, times it
    in ``atcd_http_request_seconds`` and writes one access-log line.
    Before dispatch it answers 503 (plus ``Connection: close``) while
    the server is closing, 400 for a negative or non-numeric
    ``Content-Length`` and 413 for one above :data:`MAX_BODY_BYTES`; an
    unexpected handler failure is a 500 envelope, never a dropped
    connection.  Every error is ``{"ok": false, "error", "kind", ...}``.
    Accepted sockets run with ``TCP_NODELAY`` and a
    :data:`SOCKET_TIMEOUT_SECONDS` timeout (see below).
:class:`JsonServer`
    Binds the :class:`ThreadingHTTPServer` and owns ``url``, ``closing``,
    ``serve_forever``, ``start`` and an idempotent ``close`` that calls
    the subclass's :meth:`JsonServer._release` hook.

Drain rule: every reply goes through one byte-writer, which first reads
and discards any declared request body the handler never read.  Leftover
body bytes on a kept-alive socket would otherwise be parsed as the next
request line; a body that cannot be drained retires the connection.

Sockets: a reply is written as a header block and then a body, two small
sends.  With Nagle's algorithm on, the body waits for the peer to ACK the
headers, and a kept-alive client delays that ACK by ~40 ms (RFC 896 and
RFC 1122 interacting), so every broker round trip would cost ~40 ms of
idle.  The handler therefore sets ``TCP_NODELAY`` on every accepted
socket.  Every socket read or write also times out after
:data:`SOCKET_TIMEOUT_SECONDS` (a bound against slowloris clients): a
request body that stalls gets a 408 with ``Connection: close``, and an
idle kept-alive socket is closed quietly — the clients in
:mod:`repro.net.client` reconnect on their next call.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, TypeVar

from ..obs import families as obs_families
from ..obs.trace import activate_context
from ..obs.trace import span as trace_span
from .accesslog import AccessLog, REQUEST_ID_HEADER, request_trace_seed

__all__ = [
    "MAX_BODY_BYTES", "SOCKET_TIMEOUT_SECONDS", "JsonHandler", "JsonServer",
]

#: Largest accepted request body, in bytes.  Task payloads and job
#: batches embed whole serialized models, so this is generous — but a
#: broken or hostile client must not make a server buffer arbitrary
#: amounts of memory.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds any one read or write on an accepted socket may block.  It
#: bounds a stalled request body and an idle kept-alive connection; it
#: does not bound a handler's own work (a slow solve, a stream's poll
#: loop), which never blocks on the socket.  Longer than the workers'
#: lease-renewal interval, so their heartbeat connections stay open.
SOCKET_TIMEOUT_SECONDS = 30.0

_Server = TypeVar("_Server", bound="JsonServer")


class JsonHandler(BaseHTTPRequestHandler):
    """One JSON request.

    Subclasses supply ``route_template(path)`` — the closed route label
    for the request metrics — and the ``_handle_get`` / ``_handle_post``
    route handlers, which reply through :meth:`_reply` /
    :meth:`_reply_error`.
    """

    protocol_version = "HTTP/1.1"  # keep-alive, so clients reuse connections
    disable_nagle_algorithm = True  # TCP_NODELAY: no ~40 ms reply stalls
    timeout = SOCKET_TIMEOUT_SECONDS

    _request_id = ""
    _status = 0
    _route = "other"
    _counted = False
    #: Declared request-body bytes not read yet (-1: undeclarable length).
    _unread = 0
    #: The authenticated tenant's name, for the access log (service only).
    _tenant: Optional[str] = None

    @property
    def owner(self) -> "JsonServer":
        """The :class:`JsonServer` this request is served by."""
        return self.server.owner

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.owner.verbose:
            super().log_message(format, *args)

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._observed("GET", self._handle_get)

    def do_POST(self) -> None:  # noqa: N802
        self._observed("POST", self._handle_post)

    # ------------------------------------------------------------------ #
    # per-request bookkeeping
    # ------------------------------------------------------------------ #
    def _observed(self, method: str, handler: Callable[[], None]) -> None:
        """Dispatch one request under a request id, trace context, request
        metrics and an access-log line.

        A tracing caller's ``X-Trace-Context`` (or a plausible
        ``X-Request-Id``) becomes the ambient trace for the handler, so a
        span exported here carries the caller's trace id — an untraced
        request runs without a span at all, keeping the hot claim/
        heartbeat polling loop free of per-request span exports.
        """
        owner = self.owner
        self._request_id, context = request_trace_seed(self.headers)
        self._status = 0
        self._counted = False
        self._tenant = None
        try:
            self._unread = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._unread = -1
        route = self._route = self.route_template(self.path)
        started = time.perf_counter()
        try:
            if context is not None:
                with activate_context(context), trace_span(
                    "http.request",
                    attrs={"server": owner.label, "method": method,
                           "route": route},
                ):
                    self._dispatch(handler)
            else:
                self._dispatch(handler)
        finally:
            elapsed = time.perf_counter() - started
            if not self._counted:
                # A handler that returned without replying still counts.
                self._count_request(self._status)
            obs_families.http_request_seconds().observe(
                elapsed, server=owner.label, route=route
            )
            if owner.access_log is not None:
                owner.access_log.record(
                    method=method,
                    route=self.path,
                    status=self._status,
                    latency_ms=elapsed * 1000.0,
                    request_id=self._request_id,
                    tenant=self._tenant,
                    trace_id=None if context is None else context.trace_id,
                )

    def _dispatch(self, handler: Callable[[], None]) -> None:
        label = self.owner.label
        if self.owner.closing:
            # server_close() only closes the *listening* socket: handler
            # threads on kept-alive connections would otherwise keep
            # answering against released queue/store handles.  The 503 is
            # the clients' retry path; Connection: close retires the socket.
            self._reply_error(
                503, f"{label} is shutting down; retry", "unavailable"
            )
            return
        if self._unread < 0:
            self._reply_error(
                400, "invalid request body length", "bad-request"
            )
            return
        if self._unread > MAX_BODY_BYTES:
            self._reply_error(
                413,
                f"request body of {self._unread} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
                "payload-too-large",
            )
            return
        try:
            handler()
        # staticcheck: allow-broad-except(a server must answer 500, not drop the client, on an unexpected handler failure)
        except Exception as error:  # noqa: BLE001 — must answer, not hang
            if self._status:
                raise  # a reply is already on the wire; drop the socket
            self.server.handle_error(self.request, self.client_address)
            self._reply_error(
                500, f"internal {label} error: {error}", "internal"
            )

    def _count_request(self, status: int) -> None:
        """Count the request *before* the reply is flushed: a client that
        saw the response may scrape ``/metrics`` on its very next call."""
        self._counted = True
        obs_families.http_requests_total().inc(
            server=self.owner.label, route=self._route, status=str(status)
        )

    # ------------------------------------------------------------------ #
    # request body
    # ------------------------------------------------------------------ #
    def _read_body(self) -> Optional[Dict[str, Any]]:
        """The request's JSON object, or ``None`` after replying 400 (or
        408 when the body stalls past :data:`SOCKET_TIMEOUT_SECONDS`)."""
        try:
            raw = self.rfile.read(self._unread) if self._unread else b""
        except socket.timeout:  # TimeoutError's alias only from 3.10
            # Part of the body may be consumed: the socket cannot be
            # resynced, so the reply retires it (-1: nothing to drain).
            self._unread = -1
            self._reply_error(
                408, "request body not received in time", "timeout"
            )
            return None
        self._unread = 0
        try:
            args = json.loads(raw.decode("utf-8")) if raw else {}
        except RecursionError:
            self._reply_error(
                400, "request body nests too deeply", "bad-request"
            )
            return None
        except (ValueError, UnicodeDecodeError):
            self._reply_error(
                400, "request body is not valid JSON", "bad-request"
            )
            return None
        if not isinstance(args, dict):
            self._reply_error(
                400, "request body must be a JSON object", "bad-request"
            )
            return None
        return args

    def _drain_body(self) -> bool:
        """Read and discard the unread declared body; False if it cannot
        be resynced (undeclarable, oversized or cut short)."""
        if self._unread < 0 or self._unread > MAX_BODY_BYTES:
            return False
        while self._unread > 0:
            try:
                chunk = self.rfile.read(min(self._unread, 1 << 20))
            except socket.timeout:
                return False
            if not chunk:
                return False
            self._unread -= len(chunk)
        return True

    # ------------------------------------------------------------------ #
    # replies
    # ------------------------------------------------------------------ #
    def _start_reply(
        self, status: int, headers: Dict[str, str], close: bool = False
    ) -> None:
        """Send the status line and headers — the one path every reply
        takes, so it is where the request is counted and its unread body
        drained.  A 503, or a body that cannot be drained, also retires
        the connection."""
        self._status = status
        self._count_request(status)
        if not self._drain_body() or status == 503:
            close = True
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header(REQUEST_ID_HEADER, self._request_id)
        if close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()

    def _reply_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._start_reply(status, {
            "Content-Type": content_type,
            "Content-Length": str(len(body)),
            **(headers or {}),
        })
        self.wfile.write(body)

    def _reply(
        self,
        status: int,
        document: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(document, sort_keys=True).encode("utf-8")
        self._reply_bytes(status, body, "application/json", headers)

    def _reply_text(self, status: int, body: str, content_type: str) -> None:
        self._reply_bytes(status, body.encode("utf-8"), content_type)

    def _reply_error(
        self,
        status: int,
        message: str,
        kind: str,
        headers: Optional[Dict[str, str]] = None,
        **extra: Any,
    ) -> None:
        """The error envelope ``{"ok": false, "error", "kind", **extra}``."""
        document = {"ok": False, "error": message, "kind": kind, **extra}
        self._reply(status, document, headers)

    def _reply_unknown_endpoint(self) -> None:
        self._reply_error(404, f"unknown endpoint {self.path!r}", "not-found")


class JsonServer:
    """Lifecycle of one threading JSON/HTTP server.

    Subclasses set ``label`` (the ``server`` metric label and the thread
    name) and ``handler_class`` (their :class:`JsonHandler`), and
    release what they own in :meth:`_release`.
    """

    label: str
    handler_class: type

    _http: Optional[ThreadingHTTPServer] = None
    _thread: Optional[threading.Thread] = None
    _serving = False
    _closed = False

    def __init__(
        self,
        host: str,
        port: int,
        verbose: bool = False,
        access_log: Optional[AccessLog] = None,
    ) -> None:
        self.verbose = verbose
        self.access_log = access_log
        try:
            self._http = ThreadingHTTPServer((host, port), self.handler_class)
        except BaseException:
            self.close()
            raise
        self._http.daemon_threads = True
        self._http.owner = self
        self.host, self.port = self._http.server_address[:2]
        # Register every metric family up front so a scrape taken before
        # the first request still shows the full catalog (at zero).
        obs_families.ensure_all()

    @property
    def url(self) -> str:
        """The base URL clients point at."""
        return f"http://{self.host}:{self.port}"

    @property
    def closing(self) -> bool:
        """True once :meth:`close` began; handlers answer 503 from then."""
        return self._closed

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (or a signal)."""
        self._serving = True
        self._http.serve_forever(poll_interval=0.1)

    def start(self) -> None:
        """Serve on a background daemon thread (tests, embedding)."""
        self._serving = True
        self._thread = threading.Thread(
            target=self.serve_forever, name=f"atcd-{self.label}", daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        """Stop serving and release what the server owns (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._http is not None:
            # shutdown() handshakes with a running serve loop and would
            # block forever if serving never started (e.g. a failed
            # constructor) — only the socket needs closing then.
            if self._serving:
                self._http.shutdown()
            self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._release()

    def _release(self) -> None:
        """Close the resources this server owns (called once, by close)."""

    def __enter__(self: _Server) -> _Server:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
