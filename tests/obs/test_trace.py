"""Tracing: span nesting, context propagation, and the cross-host e2e.

The e2e test is the PR's acceptance path: a coordinator submits over a
live HTTP broker, two workers execute over the same broker, and every
span any of them exports carries the coordinator's trace id.
"""

import io
import json
import threading

from repro.distributed import Coordinator, Worker
from repro.net import BrokerServer, HttpQueue
from repro.obs.trace import (
    NdjsonSpanExporter,
    TraceContext,
    activate_context,
    add_exporter,
    current_context,
    extract_context,
    inject_context,
    normalize_trace_id,
    parse_traceparent,
    span,
    traceparent_header,
)
from repro.workloads import ScenarioSpec


class TestSpans:
    def test_spans_nest_under_the_ambient_trace(self):
        finished = []
        add_exporter(finished.append)
        with span("outer") as outer:
            with span("inner") as inner:
                pass
        assert [s.name for s in finished] == ["inner", "outer"]
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert current_context() is None

    def test_exception_marks_error_and_reraises(self):
        finished = []
        add_exporter(finished.append)
        try:
            with span("doomed"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        (exported,) = finished
        assert exported.status == "error"
        assert exported.attrs["error"] == "RuntimeError"

    def test_broken_exporter_does_not_break_the_operation(self):
        def explode(_span):
            raise RuntimeError("exporter bug")

        add_exporter(explode)
        with span("survives"):
            pass  # must not raise

    def test_without_ambient_context_nothing_is_injected(self):
        assert inject_context() is None
        assert traceparent_header() is None


class TestPropagation:
    def test_payload_carrier_round_trip(self):
        with span("submit"):
            carrier = inject_context()
            ambient = current_context()
        restored = extract_context(carrier)
        assert restored == ambient

    def test_extract_tolerates_junk(self):
        for junk in (None, "x", 42, [], {"trace_id": "ZZZ"}, {}):
            assert extract_context(junk) is None

    def test_header_round_trip(self):
        context = TraceContext(trace_id="a" * 32, span_id="b" * 16)
        with activate_context(context):
            header = traceparent_header()
        assert parse_traceparent(header) == context
        assert parse_traceparent("garbage") is None
        assert parse_traceparent("zz-yy") is None

    def test_request_ids_normalize_to_trace_seeds(self):
        assert normalize_trace_id("A1B2C3D4E5F6") == "a1b2c3d4e5f6"
        assert normalize_trace_id("not hex!") is None
        assert normalize_trace_id("abc") is None  # too short
        assert normalize_trace_id(123) is None

    def test_ndjson_exporter_writes_one_line_per_span(self):
        stream = io.StringIO()
        add_exporter(NdjsonSpanExporter(stream))
        with span("a", attrs={"k": "v"}):
            pass
        with span("b"):
            pass
        lines = [json.loads(l) for l in stream.getvalue().splitlines()]
        assert [line["name"] for line in lines] == ["a", "b"]
        assert lines[0]["attrs"] == {"k": "v"}


class TestEndToEndOverBroker:
    def test_worker_spans_share_the_coordinator_trace_id(self, tmp_path):
        stream = io.StringIO()
        add_exporter(NdjsonSpanExporter(stream))
        # Four small random trees: one task per case.
        specs = [ScenarioSpec(family="random", sizes=(6,), cases_per_size=4)]
        with BrokerServer(
            queue_path=str(tmp_path / "queue.sqlite"), grace_seconds=0.0
        ) as server:
            server.start()
            with HttpQueue(server.url) as queue:
                task_ids = Coordinator(queue).submit_profile("tiny", specs)

                def run_worker(worker_id):
                    with HttpQueue(server.url) as worker_queue:
                        Worker(worker_queue, worker_id=worker_id,
                               poll_seconds=0.01).run()

                threads = [
                    threading.Thread(target=run_worker, args=(f"w{i}",))
                    for i in range(2)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert queue.drained()
        spans = [json.loads(l) for l in stream.getvalue().splitlines()]
        submits = [s for s in spans if s["name"] == "coordinator.submit"]
        assert len(submits) == 1
        trace_id = submits[0]["trace_id"]
        worker_spans = [s for s in spans if s["name"] == "worker.task"]
        assert len(worker_spans) == len(task_ids) == 4
        assert {s["trace_id"] for s in worker_spans} == {trace_id}
        # Both workers contributed, and the solve spans nested beneath
        # the worker spans stay on the same trace.
        assert {s["attrs"]["worker_id"] for s in worker_spans} == {"w0", "w1"}
        solves = [s for s in spans if s["name"] == "solve"]
        assert solves and {s["trace_id"] for s in solves} == {trace_id}
