"""The network broker: ``atcd serve`` — queue and store over JSON/HTTP.

A :class:`BrokerServer` owns one :class:`~repro.distributed.SqliteQueue`
and/or one :class:`~repro.engine.SqliteStore` and exposes their protocol
methods as HTTP endpoints (see :mod:`repro.net.wire` for the schema), so
workers and coordinators on other hosts need nothing but a URL — no
shared filesystem.  All lease, retry, dead-letter, eviction and
identity-verification semantics are the sqlite implementations',
inherited rather than reimplemented; the broker adds only transport.

Because every queue operation executes here, *this process's clock* is
the only one lease math ever sees — cross-host clock skew, the reason
:class:`SqliteQueue` grew an expiry grace, cannot occur over the broker
by construction.

The server is a :class:`http.server.ThreadingHTTPServer`: one thread per
in-flight request, with thread-safety provided by the underlying queue
and store (both serialize on internal locks).  Authentication is optional
— construct with ``token=...`` (``atcd serve --token`` /
``$ATCD_BROKER_TOKEN``) and every request must carry a matching bearer
token.
"""

from __future__ import annotations

import contextlib
import hmac
from typing import Any, Dict, List, Optional

from ..distributed.queue import (
    DEFAULT_LEASE_GRACE,
    DEFAULT_MAX_ATTEMPTS,
    QueueError,
    SqliteQueue,
    TaskState,
)
from ..engine.requests import AnalysisRequest, AnalysisResult
from ..engine.store import SqliteStore, StoreError
from ..obs.promtext import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from ..obs.scrape import render_fleet_metrics
from .accesslog import AccessLog
from .edge import JsonHandler, JsonServer
from .wire import (
    AUTH_HEADER,
    MAX_WAIT_SECONDS,
    SERVER_NAME,
    WIRE_VERSION,
    finished_to_wire,
    task_to_wire,
)

__all__ = ["BrokerServer"]

#: The operation names :func:`_queue_operation` / :func:`_store_operation`
#: dispatch on.  Route *labels* on the request metrics are drawn only from
#: these closed sets — an arbitrary client path must never mint a new
#: label value (metric cardinality is a server resource).
_QUEUE_OP_NAMES = frozenset({
    "submit", "claim", "heartbeat", "complete", "complete_and_claim",
    "fail", "expire_leases", "resubmit_dead", "cancel_pending", "prune",
    "counts", "drained", "tasks", "wait_finished", "get_meta", "set_meta",
    "set_meta_if_absent", "summary",
})
_STORE_OP_NAMES = frozenset({"get", "put", "prune", "evict", "len", "summary"})


def _route_template(path: str) -> str:
    """Collapse one request path to a bounded-cardinality route label."""
    parts = path.strip("/").split("/")
    if path in ("/ping", "/metrics"):
        return path
    if len(parts) == 2 and parts[0] == "queue" and parts[1] in _QUEUE_OP_NAMES:
        return path
    if len(parts) == 2 and parts[0] == "store" and parts[1] in _STORE_OP_NAMES:
        return path
    return "other"


def _wait_seconds(args: Dict[str, Any]) -> float:
    """The request's ``wait_seconds`` (default 0), clamped to
    :data:`MAX_WAIT_SECONDS`; a negative or non-numeric one is a 400."""
    value = args.get("wait_seconds", 0.0)
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not value >= 0
    ):
        raise ValueError(
            f"wait_seconds must be a non-negative number, got {value!r}"
        )
    return min(float(value), MAX_WAIT_SECONDS)


def _task_ids(args: Dict[str, Any], key: str) -> Optional[List[str]]:
    """An optional list-of-task-id-strings argument."""
    task_ids = args.get(key)
    if task_ids is not None and not (
        isinstance(task_ids, list)
        and all(isinstance(task_id, str) for task_id in task_ids)
    ):
        raise TypeError(f"{key} must be a list of task id strings")
    return task_ids


def _queue_operation(
    queue: SqliteQueue, op: str, args: Dict[str, Any]
) -> Dict[str, Any]:
    """Execute one ``POST /queue/<op>`` against the served queue."""
    if op == "submit":
        return {"task_ids": queue.submit(
            args["payloads"],
            max_attempts=args.get("max_attempts", DEFAULT_MAX_ATTEMPTS),
            dedupe_key=args.get("dedupe_key"),
        )}
    if op == "claim":
        task = queue.claim(
            args["worker_id"], float(args["lease_seconds"]),
            wait_seconds=_wait_seconds(args),
        )
        return {"task": None if task is None else task_to_wire(task)}
    if op == "complete_and_claim":
        ok, task = queue.complete_and_claim(
            args["task_id"], args["worker_id"], args["result"],
            float(args["lease_seconds"]),
        )
        return {"ok": ok, "task": None if task is None else task_to_wire(task)}
    if op == "heartbeat":
        return {"ok": queue.heartbeat(
            args["task_id"], args["worker_id"], float(args["lease_seconds"])
        )}
    if op == "complete":
        return {"ok": queue.complete(
            args["task_id"], args["worker_id"], args["result"]
        )}
    if op == "fail":
        return {"ok": queue.fail(
            args["task_id"], args["worker_id"], str(args["error"])
        )}
    if op == "expire_leases":
        return {"released": queue.expire_leases()}
    if op == "resubmit_dead":
        return {"task_ids": queue.resubmit_dead()}
    if op == "cancel_pending":
        return {"task_ids": queue.cancel_pending(list(args["task_ids"]))}
    if op == "prune":
        return {"pruned": queue.prune(float(args["ttl_seconds"]))}
    if op == "counts":
        return {"counts": queue.counts()}
    if op == "drained":
        return {"drained": queue.drained()}
    if op == "tasks":
        state = args.get("state")
        rows = queue.tasks(
            None if state is None else TaskState(state),
            task_ids=_task_ids(args, "task_ids"),
        )
        return {"tasks": [task_to_wire(task) for task in rows]}
    if op == "wait_finished":
        rows = queue.wait_finished(
            _task_ids(args, "task_ids") or [],
            _task_ids(args, "known") or [],
            _wait_seconds(args),
        )
        return {"finished": [finished_to_wire(row) for row in rows]}
    if op == "get_meta":
        return {"value": queue.get_meta(args["key"])}
    if op == "set_meta":
        queue.set_meta(args["key"], args["value"])
        return {}
    if op == "set_meta_if_absent":
        return {"ok": queue.set_meta_if_absent(args["key"], args["value"])}
    if op == "summary":
        return {"summary": queue.summary()}
    raise KeyError(f"unknown queue operation {op!r}")


def _store_operation(
    store: SqliteStore, op: str, args: Dict[str, Any]
) -> Dict[str, Any]:
    """Execute one ``POST /store/<op>`` against the served store.

    ``get``/``put`` reconstruct the request (and result) from their JSON
    documents before touching the store, so a malformed document is a 400
    to the caller — and the sqlite store's embedded-identity verification
    then runs on the real objects, exactly as it does locally.
    """
    if op == "get":
        request = AnalysisRequest.from_dict(args["request"])
        result = store.get(args["fingerprint"], request)
        return {"result": None if result is None else result.to_dict()}
    if op == "put":
        store.put(
            args["fingerprint"],
            AnalysisRequest.from_dict(args["request"]),
            AnalysisResult.from_dict(args["result"]),
        )
        return {}
    if op == "prune":
        return {"dropped": store.prune(fingerprint=args.get("fingerprint"))}
    if op == "evict":
        return {"dropped": store.evict(
            ttl_seconds=args.get("ttl_seconds"),
            max_bytes=args.get("max_bytes"),
        )}
    if op == "len":
        return {"entries": len(store)}
    if op == "summary":
        return {"summary": store.summary()}
    raise KeyError(f"unknown store operation {op!r}")


class _BrokerHandler(JsonHandler):
    """One request: authenticate, dispatch, reply JSON."""

    server_version = f"{SERVER_NAME}/{WIRE_VERSION}"
    route_template = staticmethod(_route_template)

    def _authorized(self) -> bool:
        token = self.owner.token
        if token is None:
            return True
        presented = self.headers.get(AUTH_HEADER, "")
        expected = f"Bearer {token}"
        if hmac.compare_digest(presented.encode(), expected.encode()):
            return True
        self._reply_error(
            401,
            "unauthorized: this broker requires a bearer token "
            "(set ATCD_BROKER_TOKEN to the server's token)",
            "unauthorized",
        )
        return False

    def _handle_get(self) -> None:
        if not self._authorized():
            return
        broker = self.owner
        if self.path == "/ping":
            self._reply(200, {
                "ok": True,
                "server": SERVER_NAME,
                "wire_version": WIRE_VERSION,
                "queue": broker.queue is not None,
                "store": broker.store is not None,
            })
            return
        if self.path == "/metrics":
            # Same auth posture as every other broker endpoint (the
            # bearer-token check above): metrics expose workload shape
            # and tenant names, which a token-protected broker protects.
            self._reply_text(
                200, broker.metrics_body(), PROMETHEUS_CONTENT_TYPE
            )
            return
        self._reply_unknown_endpoint()

    def _handle_post(self) -> None:
        if not self._authorized():
            return
        parts = self.path.strip("/").split("/")
        if len(parts) != 2 or parts[0] not in ("queue", "store"):
            self._reply_unknown_endpoint()
            return
        resource, op = parts
        broker = self.owner
        target = broker.queue if resource == "queue" else broker.store
        if target is None:
            self._reply_error(
                404, f"this broker serves no {resource}", "not-found"
            )
            return
        args = self._read_body()
        if args is None:
            return
        try:
            if resource == "queue":
                value = _queue_operation(target, op, args)
            else:
                value = _store_operation(target, op, args)
        except QueueError as error:
            # A close() racing an in-flight request surfaces as "queue is
            # closed" — that is a broker restart, not a bad request.
            if broker.closing:
                self._reply_error(503, str(error), "unavailable")
            else:
                self._reply_error(400, str(error), "queue-error")
        except StoreError as error:
            if broker.closing:
                self._reply_error(503, str(error), "unavailable")
            else:
                self._reply_error(400, str(error), "store-error")
        except (KeyError, ValueError, TypeError) as error:
            self._reply_error(
                400, f"bad {resource} request: {error}", "bad-request"
            )
        else:
            self._reply(200, {"ok": True, "value": value})


class BrokerServer(JsonServer):
    """Serve a work queue and/or result store over HTTP.

    Lifecycle (``url``, ``start``, ``serve_forever``, ``close``, context
    manager) is :class:`~repro.net.edge.JsonServer`'s.

    Parameters
    ----------
    queue_path / store_path:
        Sqlite files to expose (created if absent); at least one is
        required.  Requests against an unattached resource get a 404.
    host / port:
        Bind address; port 0 picks a free port (read it back from
        ``server.port`` / ``server.url``).
    token:
        Optional bearer token; when set, every request must present it.
    grace_seconds:
        Lease-expiry skew grace of the served queue.  The broker is a
        single clock, so the cross-host skew the grace exists for cannot
        occur here — it still applies (harmlessly) to direct sqlite
        access to the same file.
    verbose:
        Log one line per request to stderr (default: quiet).
    access_log:
        Optional :class:`~repro.net.accesslog.AccessLog`: one JSON line
        per served request (request id, route, status, latency).
    """

    label = "broker"
    handler_class = _BrokerHandler

    def __init__(
        self,
        queue_path: Optional[str] = None,
        store_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        token: Optional[str] = None,
        grace_seconds: float = DEFAULT_LEASE_GRACE,
        verbose: bool = False,
        access_log: Optional[AccessLog] = None,
    ) -> None:
        if queue_path is None and store_path is None:
            raise ValueError(
                "nothing to serve: pass queue_path and/or store_path"
            )
        self.token = token
        self.queue: Optional[SqliteQueue] = None
        self.store: Optional[SqliteStore] = None
        try:
            if queue_path is not None:
                self.queue = SqliteQueue(
                    queue_path, grace_seconds=grace_seconds
                )
            if store_path is not None:
                self.store = SqliteStore(store_path)
        except BaseException:
            self.close()
            raise
        super().__init__(host, port, verbose=verbose, access_log=access_log)

    def metrics_body(self) -> str:
        """The ``GET /metrics`` exposition body for this broker.

        Covers the broker's own registry plus every worker snapshot
        published into the served queue's metadata, so one scrape answers
        for the whole fleet behind this broker.
        """
        return render_fleet_metrics(queue=self.queue, store=self.store)

    def _release(self) -> None:
        for resource in (self.queue, self.store):
            if resource is not None:
                with contextlib.suppress(Exception):
                    resource.close()
