"""repro.obs — the stdlib-only observability layer.

Three core pieces, wired through every runtime layer:

* :mod:`repro.obs.metrics` — thread-safe labeled counters / gauges /
  histograms in a process-local registry, with JSON snapshots that merge
  across processes (workers publish theirs through queue metadata).
* :mod:`repro.obs.trace` — span-based tracing on ``contextvars``; trace
  ids propagate over HTTP headers and inside queue task payloads, and
  finished spans export as NDJSON (``--trace-out PATH|-``).
* :mod:`repro.obs.promtext` — Prometheus text-format (v0.0.4) exposition
  of a snapshot, served as ``GET /metrics`` by ``atcd serve`` and
  ``atcd api``, plus a small parser for reading scrapes back.

:mod:`repro.obs.families` is the catalog of every metric name the
runtime emits; see DESIGN.md's "Observability" section for the contract.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "families": "families",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "get_registry": "metrics",
    "set_registry": "metrics",
    "reset_registry": "metrics",
    "merge_snapshots": "metrics",
    "PROMETHEUS_CONTENT_TYPE": "promtext:CONTENT_TYPE",
    "render_prometheus": "promtext:render",
    "parse_prometheus": "promtext:parse",
    "WORKER_METRICS_META_PREFIX": "scrape",
    "render_fleet_metrics": "scrape",
    "worker_snapshots": "scrape",
    "TRACE_HEADER": "trace",
    "TraceContext": "trace",
    "Span": "trace",
    "span": "trace",
    "current_context": "trace",
    "activate_context": "trace",
    "new_trace_id": "trace",
    "normalize_trace_id": "trace",
    "inject_context": "trace",
    "extract_context": "trace",
    "traceparent_header": "trace",
    "parse_traceparent": "trace",
    "add_exporter": "trace",
    "remove_exporter": "trace",
    "clear_exporters": "trace",
    "NdjsonSpanExporter": "trace",
    "open_trace_output": "trace",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
