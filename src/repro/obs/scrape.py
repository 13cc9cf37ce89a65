"""Scrape-time assembly of a server's ``GET /metrics`` answer.

A process's own registry only knows what *this* process did — but solves
happen on workers, which may be separate processes on separate hosts.
Workers therefore publish their registry snapshot into queue metadata
(under :data:`WORKER_METRICS_META_PREFIX` + worker id) after their first
task, then at most once a second, when they go idle and when they exit;
the serving process merges those snapshots into its own at scrape time.
One ``GET /metrics`` then answers for the whole fleet, with no push
gateway and no extra wire protocol: the queue the fleet already shares
is the transport.

Gauges describe *current* state, not history, so they are refreshed here
from the queue/store summaries rather than updated on every operation —
and the local snapshot is merged *last* so its fresh gauge values win
over anything a snapshot happens to carry (gauges merge last-writer).

Caveat: merging assumes workers are separate processes.  A worker thread
sharing this process's registry would publish the very numbers the
server is about to snapshot, double-counting them — in-process tests
should scrape a fresh registry or skip publishing.

Everything here duck-types the queue/store (``counts()``, ``summary()``,
``get_meta()``) so :mod:`repro.obs` stays importable before — and
independent of — the rest of the package.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from . import families
from .metrics import MetricsRegistry, get_registry, merge_snapshots
from .promtext import render

__all__ = [
    "WORKER_METRICS_META_PREFIX",
    "worker_snapshots",
    "render_fleet_metrics",
]

#: Queue-meta key prefix under which each worker publishes its registry
#: snapshot (JSON).  Defined here, not in the worker, so scraping needs
#: nothing from :mod:`repro.distributed`.
WORKER_METRICS_META_PREFIX = "worker-metrics:"


def worker_snapshots(queue: Any) -> List[Dict[str, Any]]:
    """Every worker-published registry snapshot found in ``queue``'s meta.

    Worker ids come from the queue's own ``summary()["workers"]`` — any
    worker that ever completed a task is listed there, so no separate
    index is needed.  Unreadable or undecodable snapshots are skipped:
    a scrape must report what it can, not fail on one stale worker.
    """
    try:
        workers = queue.summary().get("workers") or []
    # staticcheck: allow-broad-except(queues are duck-typed here; a scrape reports what it can rather than failing)
    except Exception:
        return []
    snapshots: List[Dict[str, Any]] = []
    for worker_id in workers:
        try:
            raw = queue.get_meta(WORKER_METRICS_META_PREFIX + str(worker_id))
            if raw is None:
                continue
            snapshot = json.loads(raw)
        # staticcheck: allow-broad-except(one stale or undecodable worker snapshot must not fail the fleet scrape)
        except Exception:
            continue
        if isinstance(snapshot, dict):
            snapshots.append(snapshot)
    return snapshots


def _refresh_queue_gauge(queue: Any, registry: MetricsRegistry) -> None:
    try:
        counts = queue.counts()
    # staticcheck: allow-broad-except(queues are duck-typed here; a scrape without queue gauges beats no scrape)
    except Exception:
        return
    gauge = families.queue_tasks(registry)
    for state, value in counts.items():
        gauge.set(int(value), state=state)


def _refresh_store_gauges(store: Any, registry: MetricsRegistry) -> None:
    try:
        summary = store.summary()
    # staticcheck: allow-broad-except(stores are duck-typed here; a scrape without store gauges beats no scrape)
    except Exception:
        return
    families.store_entries(registry).set(int(summary.get("entries", 0)))
    families.store_bytes(registry).set(int(summary.get("size_bytes", 0)))


def render_fleet_metrics(
    queue: Optional[Any] = None,
    store: Optional[Any] = None,
    registry: Optional[MetricsRegistry] = None,
) -> str:
    """The Prometheus text body for one ``GET /metrics``.

    Refreshes the state gauges (the queue's task counts, store
    entries/bytes), merges every worker snapshot found in the queue's
    metadata under the process's own registry, and renders the result.
    """
    registry = registry if registry is not None else get_registry()
    families.ensure_all(registry)
    snapshots: List[Dict[str, Any]] = []
    if queue is not None:
        _refresh_queue_gauge(queue, registry)
        snapshots.extend(worker_snapshots(queue))
    if store is not None:
        _refresh_store_gauges(store, registry)
    snapshots.append(registry.snapshot())
    return render(merge_snapshots(*snapshots))
