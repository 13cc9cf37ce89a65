"""Broker clients: the queue and store protocols over JSON/HTTP.

:class:`HttpQueue` and :class:`HttpStore` are drop-in
:class:`~repro.distributed.queue.WorkQueue` /
:class:`~repro.engine.store.ResultStore` implementations that speak the
``atcd serve`` wire protocol (:mod:`repro.net.wire`).  Everywhere the
code accepts a queue or store *path*, an ``http://host:port`` URL now
works instead — :func:`repro.distributed.open_queue` and
:func:`repro.engine.store.open_store` dispatch on the scheme.

Transport behaviour, shared by both clients:

* **Connection reuse** — one persistent ``http.client.HTTPConnection``
  per calling thread (the worker's main loop and its lease-keeper thread
  must not serialize on a socket), re-established transparently when the
  server closes it (as it does with a socket left idle past
  :data:`repro.net.edge.SOCKET_TIMEOUT_SECONDS`).
* **Retry with backoff** — connection-level failures (refused, reset,
  timed out) are retried with exponential backoff, so a fleet rides out
  a broker restart instead of dead-lettering its tasks.  HTTP *error
  responses* are never retried: the server answered, and answered no.
* **Errors as user errors** — an exhausted retry budget or a server-side
  rejection raises :class:`QueueError`/:class:`StoreError`, which the CLI
  reports as a one-line exit-2 message like every other bad-input case.

Retried requests are not exactly-once: a ``claim`` or
``complete_and_claim`` whose response was lost may leave an orphan lease
on the server, recovered by the normal expiry sweep — the same guarantee
as a crashed worker, and the reason blanket retry is safe here.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
import urllib.parse
import uuid
from typing import (
    Any, Callable, Collection, Dict, List, Optional, Sequence, Tuple, Type,
)

from ..distributed.queue import (
    DEFAULT_MAX_ATTEMPTS,
    FinishedTask,
    QueueError,
    Task,
    TaskState,
)
from ..engine.requests import AnalysisRequest, AnalysisResult
from ..engine.store import StoreError, StoreStats
from .wire import (
    AUTH_HEADER,
    SERVER_NAME,
    TOKEN_ENV_VAR,
    WIRE_VERSION,
    finished_from_wire,
    task_from_wire,
)

__all__ = ["HttpQueue", "HttpStore"]


class _Transport:
    """One broker endpoint: per-thread connections, retries, JSON framing."""

    def __init__(
        self,
        url: str,
        error_type: Type[ValueError],
        token: Optional[str] = None,
        timeout: float = 60.0,
        retries: int = 5,
        backoff_seconds: float = 0.1,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._error_type = error_type
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme not in ("http", "https") or not parsed.hostname:
            raise error_type(f"invalid broker URL {url!r}")
        if parsed.path.strip("/") or parsed.query or parsed.fragment:
            raise error_type(
                f"invalid broker URL {url!r}: expected just http://host:port"
            )
        self.url = f"{parsed.scheme}://{parsed.netloc}"
        self._scheme = parsed.scheme
        self._host = parsed.hostname
        self._port = parsed.port or (443 if parsed.scheme == "https" else 80)
        self._token = token if token is not None else os.environ.get(TOKEN_ENV_VAR)
        self._timeout = timeout
        self._retries = retries
        self._backoff = backoff_seconds
        self._sleep = sleep
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # connection management
    # ------------------------------------------------------------------ #
    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            factory = (
                http.client.HTTPSConnection
                if self._scheme == "https"
                else http.client.HTTPConnection
            )
            connection = factory(self._host, self._port, timeout=self._timeout)
            self._local.connection = connection
        return connection

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            try:
                connection.close()
            # staticcheck: allow-broad-except(already tearing down; a close failure has nothing left to corrupt)
            except Exception:  # noqa: BLE001 — already tearing down
                pass
            self._local.connection = None

    def close(self) -> None:
        self._drop_connection()

    # ------------------------------------------------------------------ #
    # requests
    # ------------------------------------------------------------------ #
    def _headers(self) -> Dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self._token is not None:
            headers[AUTH_HEADER] = f"Bearer {self._token}"
        return headers

    def _round_trip(self, method: str, path: str, body: bytes) -> tuple:
        connection = self._connection()
        connection.request(method, path, body=body, headers=self._headers())
        response = connection.getresponse()
        return response.status, response.read()

    def _attempt_loop(self, method: str, path: str, body: bytes) -> tuple:
        """Round-trip with reconnect/backoff; returns ``(status, raw)``.

        Retried: connection-level failures (the server may be restarting,
        or a kept-alive socket went stale) and 503 (the broker said it is
        shutting down and told us to come back on a fresh connection).
        Any other answer — success or rejection — is returned as-is.
        """
        last_error: Optional[Exception] = None
        for attempt in range(self._retries + 1):
            if attempt:
                self._sleep(self._backoff * (2 ** (attempt - 1)))
            try:
                status, raw = self._round_trip(method, path, body)
            except (OSError, http.client.HTTPException) as error:
                self._drop_connection()
                last_error = error
                continue
            if status == 503:
                self._drop_connection()
                last_error = self._error_type(f"broker {self.url}: HTTP 503")
                continue
            return status, raw
        raise self._error_type(
            f"broker {self.url} unreachable after {self._retries + 1} "
            f"attempts: {last_error}"
        )

    def request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Any:
        """One wire call; returns the response's ``value`` document."""
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        status, raw = self._attempt_loop(method, path, body)
        return self._decode(path, status, raw)

    def _decode(self, path: str, status: int, raw: bytes) -> Any:
        try:
            document = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            document = {}
        if status == 200 and document.get("ok"):
            return document.get("value")
        message = document.get("error") or f"HTTP {status}"
        raise self._error_type(f"broker {self.url}{path}: {message}")

    def ping_raw(self) -> Dict[str, Any]:
        """The full ``GET /ping`` document (outside the value envelope)."""
        status, raw = self._attempt_loop("GET", "/ping", b"")
        try:
            document = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            document = {}
        if status != 200 or document.get("server") != SERVER_NAME:
            message = document.get("error") or f"HTTP {status}"
            raise self._error_type(
                f"{self.url} is not an atcd broker: {message}"
            )
        if document.get("wire_version") != WIRE_VERSION:
            raise self._error_type(
                f"broker {self.url} speaks wire version "
                f"{document.get('wire_version')!r}; this build speaks "
                f"{WIRE_VERSION}"
            )
        return document


class HttpQueue:
    """A :class:`~repro.distributed.queue.WorkQueue` over an atcd broker.

    Parameters
    ----------
    url:
        The broker base URL (``http://host:port``) — what ``atcd serve``
        printed on startup.
    token:
        Bearer token when the broker requires one; defaults to
        ``$ATCD_BROKER_TOKEN``.
    timeout / retries / backoff_seconds:
        Transport tuning; see the module docstring.
    """

    def __init__(
        self,
        url: str,
        token: Optional[str] = None,
        timeout: float = 60.0,
        retries: int = 5,
        backoff_seconds: float = 0.1,
    ) -> None:
        self._transport = _Transport(
            url, QueueError, token=token, timeout=timeout,
            retries=retries, backoff_seconds=backoff_seconds,
        )
        self.url = self._transport.url

    def _call(self, op: str, payload: Optional[Dict[str, Any]] = None) -> Any:
        return self._transport.request("POST", f"/queue/{op}", payload or {})

    def ping(self) -> Dict[str, Any]:
        """Verify the broker is reachable and serves a work queue."""
        document = self._transport.ping_raw()
        if not document.get("queue"):
            raise QueueError(f"broker {self.url} serves no work queue")
        return document

    # ------------------------------------------------------------------ #
    # WorkQueue interface
    # ------------------------------------------------------------------ #
    def submit(
        self,
        payloads: Sequence[Dict[str, Any]],
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        dedupe_key: Optional[str] = None,
    ) -> List[str]:
        # Submit is the one non-idempotent operation blanket retry would
        # corrupt (a lost response + retry = the whole batch duplicated),
        # so every call carries a dedupe key — stable across this call's
        # retries — and the server returns the recorded ids on a replay.
        if dedupe_key is None:
            dedupe_key = uuid.uuid4().hex
        return self._call("submit", {
            "payloads": list(payloads), "max_attempts": max_attempts,
            "dedupe_key": dedupe_key,
        })["task_ids"]

    def claim(
        self, worker_id: str, lease_seconds: float, wait_seconds: float = 0.0
    ) -> Optional[Task]:
        value = self._call("claim", {
            "worker_id": worker_id, "lease_seconds": lease_seconds,
            "wait_seconds": wait_seconds,
        })["task"]
        return None if value is None else task_from_wire(value)

    def heartbeat(self, task_id: str, worker_id: str, lease_seconds: float) -> bool:
        return self._call("heartbeat", {
            "task_id": task_id, "worker_id": worker_id,
            "lease_seconds": lease_seconds,
        })["ok"]

    def complete(self, task_id: str, worker_id: str, result: Dict[str, Any]) -> bool:
        return self._call("complete", {
            "task_id": task_id, "worker_id": worker_id, "result": result,
        })["ok"]

    def complete_and_claim(
        self,
        task_id: str,
        worker_id: str,
        result: Dict[str, Any],
        lease_seconds: float,
    ) -> Tuple[bool, Optional[Task]]:
        value = self._call("complete_and_claim", {
            "task_id": task_id, "worker_id": worker_id, "result": result,
            "lease_seconds": lease_seconds,
        })
        task = value["task"]
        return value["ok"], None if task is None else task_from_wire(task)

    def wait_finished(
        self,
        task_ids: Sequence[str],
        known: Collection[str],
        wait_seconds: float,
    ) -> List[FinishedTask]:
        value = self._call("wait_finished", {
            "task_ids": list(task_ids), "known": list(known),
            "wait_seconds": wait_seconds,
        })["finished"]
        return [finished_from_wire(row) for row in value]

    def fail(self, task_id: str, worker_id: str, error: str) -> bool:
        return self._call("fail", {
            "task_id": task_id, "worker_id": worker_id, "error": str(error),
        })["ok"]

    def expire_leases(self) -> int:
        return self._call("expire_leases")["released"]

    def resubmit_dead(self) -> List[str]:
        return self._call("resubmit_dead")["task_ids"]

    def cancel_pending(self, task_ids: Sequence[str]) -> List[str]:
        return self._call("cancel_pending", {
            "task_ids": list(task_ids),
        })["task_ids"]

    def prune(self, ttl_seconds: float) -> Dict[str, int]:
        return self._call("prune", {"ttl_seconds": ttl_seconds})["pruned"]

    def counts(self) -> Dict[str, int]:
        return self._call("counts")["counts"]

    def drained(self) -> bool:
        return self._call("drained")["drained"]

    def tasks(
        self,
        state: Optional[TaskState] = None,
        task_ids: Optional[Sequence[str]] = None,
    ) -> List[Task]:
        value = self._call("tasks", {
            "state": None if state is None else state.value,
            "task_ids": None if task_ids is None else list(task_ids),
        })["tasks"]
        return [task_from_wire(row) for row in value]

    def get_meta(self, key: str) -> Optional[str]:
        return self._call("get_meta", {"key": key})["value"]

    def set_meta(self, key: str, value: str) -> None:
        self._call("set_meta", {"key": key, "value": value})

    def set_meta_if_absent(self, key: str, value: str) -> bool:
        ok = self._call("set_meta_if_absent", {"key": key, "value": value})["ok"]
        if not ok and self.get_meta(key) == value:
            # Our own committed write, replayed after a lost response: the
            # key holds exactly the value we tried to record, so this call
            # is the one that won the check-and-set — without this, a
            # coordinator would see False, conclude "queue already holds a
            # run", and abort its own half-recorded submission.
            return True
        return ok

    def summary(self) -> Dict[str, Any]:
        summary = self._call("summary")["summary"]
        summary["url"] = self.url
        return summary

    def close(self) -> None:
        self._transport.close()

    def __enter__(self) -> "HttpQueue":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class HttpStore:
    """A :class:`~repro.engine.store.ResultStore` over an atcd broker.

    The poisoning guard (embedded-identity verification) runs on the
    *server's* sqlite store; this client only moves the JSON documents.
    ``stats`` counts this client's own traffic — hits, misses and writes
    as observed from here, like the in-process stores do.
    """

    def __init__(
        self,
        url: str,
        token: Optional[str] = None,
        timeout: float = 60.0,
        retries: int = 5,
        backoff_seconds: float = 0.1,
    ) -> None:
        self._transport = _Transport(
            url, StoreError, token=token, timeout=timeout,
            retries=retries, backoff_seconds=backoff_seconds,
        )
        self.url = self._transport.url
        self.stats = StoreStats()

    def _call(self, op: str, payload: Optional[Dict[str, Any]] = None) -> Any:
        return self._transport.request("POST", f"/store/{op}", payload or {})

    def ping(self) -> Dict[str, Any]:
        """Verify the broker is reachable and actually serves a store."""
        document = self._transport.ping_raw()
        if not document.get("store"):
            raise StoreError(f"broker {self.url} serves no result store")
        return document

    # ------------------------------------------------------------------ #
    # ResultStore interface
    # ------------------------------------------------------------------ #
    def get(
        self, fingerprint: str, request: AnalysisRequest
    ) -> Optional[AnalysisResult]:
        value = self._call("get", {
            "fingerprint": fingerprint, "request": request.to_dict(),
        })["result"]
        if value is None:
            self.stats.misses += 1
            return None
        try:
            result = AnalysisResult.from_dict(value)
        except (ValueError, TypeError, KeyError):
            # A response that does not parse is treated exactly like the
            # local stores treat an unusable row: rejected, never served.
            self.stats.rejected += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(
        self, fingerprint: str, request: AnalysisRequest, result: AnalysisResult
    ) -> None:
        self._call("put", {
            "fingerprint": fingerprint,
            "request": request.to_dict(),
            "result": result.to_dict(),
        })
        self.stats.writes += 1

    def prune(self, fingerprint: Optional[str] = None) -> int:
        return self._call("prune", {"fingerprint": fingerprint})["dropped"]

    def evict(
        self,
        ttl_seconds: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        return self._call("evict", {
            "ttl_seconds": ttl_seconds, "max_bytes": max_bytes,
        })["dropped"]

    def __len__(self) -> int:
        return self._call("len")["entries"]

    def summary(self) -> Dict[str, Any]:
        summary = self._call("summary")["summary"]
        summary["url"] = self.url
        return summary

    def close(self) -> None:
        self._transport.close()

    def __enter__(self) -> "HttpStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
