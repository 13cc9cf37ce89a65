"""Per-layer metrics of a traced run, computed from recorded spans.

Span names follow the hooks in ``hooks.py`` and ``host.py``: kernel and
engine functions (``core.bilp``, ``milp.highs``, ...), and proxied method
calls named ``<object>.<method>`` (``queue.claim``, ``store.get``,
``jobs.status``, ...).  Every metric is per op unless its unit says
otherwise: ``*_ratio`` metrics are shares of calls, and
``net.broker_rtt_ms`` is the median round trip of one broker call.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from tracing import Span, has_ancestor, self_times, summarize

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("milp.highs_calls", "count"),
    ("milp.highs_ms", "ms"),
    ("core.bilp_ms", "ms"),
    ("core.bottom_up_ms", "ms"),
    ("pareto.minimize_ms", "ms"),
    ("attacktree.decode_ms", "ms"),
    ("engine.resolve_ms", "ms"),
    ("engine.encode_ms", "ms"),
    ("engine.front_points", "count"),
    ("service.http_submit_ms", "ms"),
    ("service.validate_ms", "ms"),
    ("service.enqueue_ms", "ms"),
    ("service.status_ms", "ms"),
    ("service.status_calls", "count"),
    ("distributed.queue_wait_ms", "ms"),
    ("service.result_delay_ms", "ms"),
    ("distributed.claim_hit_ratio", "ratio"),
    ("engine.store_hit_ratio", "ratio"),
    ("net.broker_rtt_ms", "ms"),
    ("net.broker_calls", "count"),
    ("distributed.execute_ms", "ms"),
    ("distributed.complete_ms", "ms"),
    ("distributed.claim_ms", "ms"),
    ("engine.store_get_ms", "ms"),
    ("engine.store_put_ms", "ms"),
    ("obs.publish_ms", "ms"),
    ("obs.publish_bytes", "bytes"),
)

#: Work done inside a store lookup or write (decoding a cached result) is
#: the store's, not the engine's.
_STORE_SPANS = ("store.get", "store.put")


def _ms(ns: float) -> float:
    return ns / 1e6


def _duration(span: Span) -> int:
    return span[2] - span[1]


def _attrs(span: Span) -> Dict[str, Any]:
    """A span's attributes; empty for a call that raised."""
    return span[4] or {}


def kernel_layers(processes: Iterable[Sequence[Span]], ops: int) -> Dict[str, float]:
    """The ``milp``, ``core``, ``pareto``, ``attacktree`` and ``engine``
    metrics from the spans of the processes that ran the solves."""
    totals = dict.fromkeys(
        ("highs_calls", "highs", "bilp", "bottom_up", "minimize", "decode",
         "resolve", "encode", "points"), 0.0,
    )
    for spans in processes:
        own = self_times(spans)
        for index, span in enumerate(spans):
            name = span[0]
            if has_ancestor(spans, index, _STORE_SPANS):
                continue
            if name == "milp.highs":
                totals["highs_calls"] += 1
                totals["highs"] += _duration(span)
            elif name == "core.bilp":
                totals["bilp"] += own[index]
            elif name == "core.bottom_up":
                totals["bottom_up"] += own[index]
            elif name == "pareto.minimize":
                totals["minimize"] += _duration(span)
            elif name in ("attacktree.decode", "engine.request_decode"):
                totals["decode"] += _duration(span)
            elif name == "engine.resolve":
                totals["resolve"] += _duration(span)
            elif name == "engine.encode":
                totals["encode"] += _duration(span)
                totals["points"] += _attrs(span).get("points", 0)
    return {
        "milp.highs_calls": totals["highs_calls"] / ops,
        "milp.highs_ms": _ms(totals["highs"]) / ops,
        "core.bilp_ms": _ms(totals["bilp"]) / ops,
        "core.bottom_up_ms": _ms(totals["bottom_up"]) / ops,
        "pareto.minimize_ms": _ms(totals["minimize"]) / ops,
        "attacktree.decode_ms": _ms(totals["decode"]) / ops,
        "engine.resolve_ms": _ms(totals["resolve"]) / ops,
        "engine.encode_ms": _ms(totals["encode"]) / ops,
        "engine.front_points": totals["points"] / ops,
    }


def _named(processes: Iterable[Sequence[Span]], name: str) -> List[Span]:
    return [span for spans in processes for span in spans if span[0] == name]


def _total_ms(spans: Iterable[Span]) -> float:
    return _ms(sum(_duration(span) for span in spans))


def _ratio(hits: int, calls: int) -> float:
    return hits / calls if calls else 0.0


def service_layers(
    api: Sequence[Sequence[Span]],
    workers: Sequence[Sequence[Span]],
    ops: Sequence[Any],
) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
    """The service, distributed, store, net and obs metrics, plus per-op
    stage samples (ms) for the report: submit (POST start to enqueue),
    queue wait (enqueue to claim), execute and result delay (``complete``
    returning to the client reading the result line).

    ``ops`` are the client's records (``job_id``, ``index``,
    ``submit_start``, ``submit_end``, ``read``); task ids are joined to
    them through the ``jobs.submit`` span that encloses each
    ``queue.submit`` span in the API process.
    """
    count = len(ops)
    enqueued: Dict[str, int] = {}
    job_tasks: Dict[str, List[str]] = {}
    for spans in api:
        for span in spans:
            task_ids = _attrs(span).get("task_ids")
            if span[0] == "queue.submit" and task_ids and span[3] is not None:
                job_tasks[_attrs(spans[span[3]]).get("job_id")] = task_ids
                for task_id in task_ids:
                    enqueued[task_id] = span[2]
    claims = _named(workers, "queue.claim")
    claimed = {
        _attrs(span)["task_id"]: span[2] for span in claims
        if _attrs(span).get("task_id")
    }
    completed = {
        _attrs(span)["task_id"]: span[2]
        for span in _named(workers, "queue.complete") if _attrs(span).get("ok")
    }
    executes = _named(workers, "distributed.execute")
    executed = {
        (_attrs(span).get("job_id"), _attrs(span).get("index")): _duration(span)
        for span in executes
    }
    waits = [
        _ms(claimed[task] - enqueued[task]) for task in enqueued if task in claimed
    ]
    delays = []
    stages: Dict[str, List[float]] = {
        "submit": [], "queue wait": [], "execute": [], "result delay": [],
    }
    for op in ops:
        task_ids = job_tasks.get(op.job_id)
        task = task_ids[op.index] if task_ids else None
        if not (op.read and task in claimed and task in completed):
            continue
        delays.append(_ms(op.read - completed[task]))
        stages["submit"].append(_ms(enqueued[task] - op.submit_start))
        stages["queue wait"].append(_ms(claimed[task] - enqueued[task]))
        stages["execute"].append(_ms(executed.get((op.job_id, op.index), 0)))
        stages["result delay"].append(delays[-1])
    submits = {op.job_id: op.submit_end - op.submit_start for op in ops}
    gets = _named(workers, "store.get")
    status = _named(api, "jobs.status") + _named(api, "jobs.results")
    broker = [
        span for spans in list(api) + list(workers) for span in spans
        if span[0].startswith(("queue.", "store."))
    ]
    publishes = _named(workers, "queue.set_meta")
    metrics = {
        "service.http_submit_ms": _ms(sum(submits.values())) / count,
        "service.validate_ms": _total_ms(_named(api, "service.validate")) / count,
        "service.enqueue_ms": _total_ms(_named(api, "jobs.submit")) / count,
        "service.status_ms": _total_ms(status) / count,
        "service.status_calls": len(status) / count,
        "distributed.queue_wait_ms": statistics.fmean(waits) if waits else 0.0,
        "service.result_delay_ms": statistics.fmean(delays) if delays else 0.0,
        "distributed.claim_hit_ratio": _ratio(
            sum(1 for span in claims if _attrs(span).get("task_id")), len(claims)
        ),
        "engine.store_hit_ratio": _ratio(
            sum(1 for span in gets if _attrs(span).get("hit")), len(gets)
        ),
        "net.broker_rtt_ms": (
            statistics.median(_ms(_duration(span)) for span in broker)
            if broker else 0.0
        ),
        "net.broker_calls": len(broker) / count,
        "distributed.execute_ms": _total_ms(executes) / count,
        "distributed.complete_ms": _total_ms(_named(workers, "queue.complete")) / count,
        "distributed.claim_ms": _total_ms(claims) / count,
        "engine.store_get_ms": _total_ms(gets) / count,
        "engine.store_put_ms": _total_ms(_named(workers, "store.put")) / count,
        "obs.publish_ms": _total_ms(_named(workers, "obs.publish")) / count,
        "obs.publish_bytes": sum(
            _attrs(span).get("bytes", 0) for span in publishes
        ) / count,
    }
    return metrics, stages


def layer_table(processes: Iterable[Sequence[Span]], ops: int) -> List[str]:
    """Report lines: calls, total and self milliseconds per op by span name."""
    merged: Dict[str, Dict[str, float]] = {}
    for spans in processes:
        for name, row in summarize(spans).items():
            into = merged.setdefault(name, dict.fromkeys(row, 0.0))
            for key, value in row.items():
                into[key] += value
    lines = [f"  {'span':<26} {'calls/op':>10} {'total ms/op':>12} {'self ms/op':>11}"]
    for name, row in sorted(merged.items(), key=lambda item: -item[1]["self_ms"]):
        lines.append(
            f"  {name:<26} {row['calls'] / ops:>10.3f} "
            f"{row['total_ms'] / ops:>12.3f} {row['self_ms'] / ops:>11.3f}"
        )
    return lines
