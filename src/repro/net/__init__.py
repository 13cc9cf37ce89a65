"""Network broker: queue and store over HTTP, for shared-nothing fleets.

The distributed runtime (:mod:`repro.distributed`) and the shared result
store (:mod:`repro.engine.store`) both coordinate through a sqlite file —
which requires every host to mount one filesystem.  This package removes
that requirement with a deliberately small, stdlib-only HTTP layer:

``server``
    :class:`BrokerServer` — ``atcd serve`` — a threading
    :mod:`http.server` wrapper that exposes one :class:`SqliteQueue`
    and/or one :class:`SqliteStore` as JSON/HTTP endpoints.  All queue
    and store semantics (atomic claims, leases, retries, dead-letter,
    identity-verified reads, eviction) are the sqlite implementations',
    inherited rather than reimplemented — and because every operation
    executes on the broker, its clock is the only one lease math sees.
``edge``
    The HTTP edge the broker and the analysis service (``atcd api``)
    share: :class:`~repro.net.edge.JsonHandler` runs every request under
    a request id, trace context, request metrics and an access-log line
    and answers errors as ``{"ok": false, "error", "kind", ...}`` — 400
    for an undeclarable length or undecodable (or too deeply nested)
    JSON, 413 plus ``Connection: close`` for a body over
    ``MAX_BODY_BYTES``, 503 plus ``Connection: close`` once the server
    is closing, 408 plus ``Connection: close`` for a body that stalls
    past ``SOCKET_TIMEOUT_SECONDS``, 500 for an unexpected handler
    failure.  Every reply first drains any declared body the handler
    left unread, so a kept-alive socket never desyncs.  Accepted
    sockets run with ``TCP_NODELAY``, and idle ones close after
    ``SOCKET_TIMEOUT_SECONDS``.
    :class:`~repro.net.edge.JsonServer` owns the bind and the lifecycle.
``client``
    :class:`HttpQueue` / :class:`HttpStore` — drop-in ``WorkQueue`` /
    ``ResultStore`` implementations with per-thread connection reuse and
    retry/backoff, so fleets ride out broker restarts.
``wire``
    The JSON/HTTP schema both sides speak, versioned separately from the
    sqlite layouts.

Typical use — one broker host, N shared-nothing workers::

    # broker host (owns the only state):
    #   atcd serve --queue run.queue --store results.sqlite --port 8765
    # every other host:
    #   atcd dist worker --queue http://broker:8765 --store http://broker:8765

``open_queue``/``open_store`` dispatch on the URL scheme, so every
``--queue``/``--store`` flag accepts ``http://host:port`` wherever it
accepts a path.  Optional bearer-token auth: start the server with
``--token`` (or ``$ATCD_BROKER_TOKEN``) and export the same variable on
the clients.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "AccessLog": "accesslog",
    "BrokerServer": "server",
    "HttpQueue": "client",
    "HttpStore": "client",
    "REQUEST_ID_HEADER": "accesslog",
    "TOKEN_ENV_VAR": "wire",
    "WIRE_VERSION": "wire",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
