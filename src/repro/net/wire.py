"""The broker wire schema: JSON/HTTP framing shared by server and clients.

Every broker operation is one HTTP request against an ``atcd serve``
process:

``GET /ping``
    Liveness and capability probe.  Returns ``{"server": "atcd-broker",
    "wire_version": 1, "queue": bool, "store": bool}`` — clients verify
    ``wire_version`` and that the resource they need is attached.
``POST /queue/<op>`` / ``POST /store/<op>``
    One :class:`~repro.distributed.queue.WorkQueue` /
    :class:`~repro.engine.store.ResultStore` protocol method each.  The
    request body is a JSON object of the method's arguments; the response
    is ``{"ok": true, "value": {...}}`` with the method's result.
    ``tasks`` takes an optional ``state`` and an optional ``task_ids``
    list; with ``task_ids`` only those tasks come back (unknown ids are
    skipped), still in submission order.

Errors are JSON too — ``{"ok": false, "error": "<message>", "kind":
"<kind>"}`` — with the HTTP status carrying the class of failure:

* ``400`` — the request is invalid: malformed JSON, missing arguments, an
  unknown operation, or a server-side :class:`QueueError`/:class:`StoreError`
  (``kind`` distinguishes them).  Never retried by clients.
* ``401`` — missing or wrong bearer token.  Never retried.
* ``404`` — unknown path, or the broker serves no queue/store.  Never
  retried.
* ``500`` — an internal server failure.  Never retried (a genuine bug
  should surface, not loop).

Connection-level failures (refused, reset, timeout) *are* retried by
clients with exponential backoff — that is what lets a fleet ride out a
broker restart.  A retried ``claim`` whose first response was lost may
leave an orphan lease behind, which the normal expiry sweep recovers —
the same guarantee as a crashed worker.  ``submit`` is the one operation
a blind retry would corrupt (a duplicated batch), so every submit
carries a ``dedupe_key``, stable across one call's retries; the server
records the resulting task ids under it atomically and answers a replay
with the original ids.

Authentication is optional: when the server holds a token, every request
must carry ``Authorization: Bearer <token>``.  Clients read
``$ATCD_BROKER_TOKEN`` by default.

Task rows travel as plain dicts (:func:`task_to_wire` /
:func:`task_from_wire`); stored analysis results travel as their existing
JSON documents (``AnalysisRequest.to_dict()`` / ``AnalysisResult.to_dict()``),
so the sqlite store's embedded-identity poisoning guard runs unchanged on
the server.
"""

from __future__ import annotations

from typing import Any, Dict

from ..distributed.queue import Task, TaskState

__all__ = [
    "WIRE_VERSION",
    "AUTH_HEADER",
    "TOKEN_ENV_VAR",
    "SERVER_NAME",
    "task_to_wire",
    "task_from_wire",
]

#: Version of the wire protocol.  Bump on any incompatible change; clients
#: reject servers speaking another version during ``ping``.
WIRE_VERSION = 1

#: HTTP header carrying the bearer token when auth is enabled.
AUTH_HEADER = "Authorization"

#: Environment variable clients (and ``atcd serve``) read the token from.
TOKEN_ENV_VAR = "ATCD_BROKER_TOKEN"

#: The ``server`` field of ``GET /ping`` — a sanity check that the URL
#: points at an atcd broker and not some other HTTP service.
SERVER_NAME = "atcd-broker"


def task_to_wire(task: Task) -> Dict[str, Any]:
    """One queue task as a JSON-compatible dict (state as its string)."""
    return {
        "task_id": task.task_id,
        "seq": task.seq,
        "payload": task.payload,
        "state": task.state.value,
        "attempts": task.attempts,
        "max_attempts": task.max_attempts,
        "worker_id": task.worker_id,
        "lease_expires_unix": task.lease_expires_unix,
        "result": task.result,
        "error": task.error,
    }


def task_from_wire(data: Dict[str, Any]) -> Task:
    """Rebuild a :class:`Task` from its wire dict (inverse of the above)."""
    return Task(
        task_id=data["task_id"],
        seq=data["seq"],
        payload=data["payload"],
        state=TaskState(data["state"]),
        attempts=data["attempts"],
        max_attempts=data["max_attempts"],
        worker_id=data.get("worker_id"),
        lease_expires_unix=data.get("lease_expires_unix"),
        result=data.get("result"),
        error=data.get("error"),
    )
