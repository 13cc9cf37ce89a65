"""Broker failure modes: restarts, bad requests, auth, wire conformance.

The happy-path semantics of :class:`HttpQueue`/:class:`HttpStore` are
covered by the shared ``any_queue``/``any_store`` fixtures in
``tests/distributed/test_queue.py`` and ``tests/engine/test_store.py``
(every queue/store test runs against a live broker there).  This file
covers what only the network layer can get wrong: a server restart
mid-run, malformed and unauthorized requests, and protocol conformance.
"""

import http.client
import json
import threading
import time

import pytest

from repro.attacktree.catalog import factory
from repro.cli import main
from repro.core.problems import Problem
from repro.distributed import (
    QueueError,
    TaskState,
    Worker,
    WorkQueue,
)
from repro.engine import AnalysisRequest, model_fingerprint, run_request
from repro.engine.store import ResultStore, StoreError, open_store
from repro.distributed.queue import open_queue
from repro.net import BrokerServer, HttpQueue, HttpStore, WIRE_VERSION
from repro.net.edge import JsonHandler
from repro.obs.families import http_requests_total


@pytest.fixture
def paths(tmp_path):
    return str(tmp_path / "queue.sqlite"), str(tmp_path / "store.sqlite")


@pytest.fixture
def broker(paths):
    queue_path, store_path = paths
    server = BrokerServer(queue_path=queue_path, store_path=store_path,
                          grace_seconds=0.0)
    server.start()
    yield server
    server.close()


def raw_request(server, method, path, body=None, headers=None):
    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=10)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        connection.close()


class TestProtocolConformance:
    def test_clients_satisfy_the_runtime_protocols(self, broker):
        with HttpQueue(broker.url) as queue, HttpStore(broker.url) as store:
            assert isinstance(queue, WorkQueue)
            assert isinstance(store, ResultStore)

    def test_ping_reports_wire_version_and_resources(self, broker):
        status, document = raw_request(broker, "GET", "/ping")
        assert status == 200
        assert document["server"] == "atcd-broker"
        assert document["wire_version"] == WIRE_VERSION
        assert document["queue"] is True and document["store"] is True

    def test_open_queue_and_open_store_dispatch_urls(self, broker):
        with open_queue(broker.url, must_exist=True) as queue:
            assert isinstance(queue, HttpQueue)
            assert queue.counts()["pending"] == 0
        with open_store(broker.url, must_exist=True) as store:
            assert isinstance(store, HttpStore)
            assert len(store) == 0

    def test_queue_only_broker_rejects_store_clients(self, paths):
        queue_path, _ = paths
        with BrokerServer(queue_path=queue_path) as server:
            server.start()
            with pytest.raises(StoreError, match="serves no result store"):
                open_store(server.url, must_exist=True)
            status, document = raw_request(
                server, "POST", "/store/len", body=b"{}"
            )
            assert status == 404

    def test_store_only_broker_rejects_queue_clients(self, paths):
        _, store_path = paths
        with BrokerServer(store_path=store_path) as server:
            server.start()
            with pytest.raises(QueueError, match="serves no work queue"):
                open_queue(server.url, must_exist=True)

    def test_unreachable_broker_fails_with_one_clear_error(self):
        queue = HttpQueue("http://127.0.0.1:9", retries=1,
                          backoff_seconds=0.01)
        with pytest.raises(QueueError, match="unreachable"):
            queue.counts()

    def test_ping_succeeds_against_a_real_broker(self, broker):
        assert HttpQueue(broker.url).ping()["queue"] is True
        assert HttpStore(broker.url).ping()["store"] is True

    def test_non_broker_http_server_is_rejected_on_ping(self):
        """A live HTTP server that is not an atcd broker must be refused
        with a clear message, not probed with queue traffic."""
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class NotABroker(BaseHTTPRequestHandler):
            def do_GET(self):
                body = b"{\"hello\": \"world\"}"
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):  # noqa: A002
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), NotABroker)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            with pytest.raises(QueueError, match="not an atcd broker"):
                HttpQueue(url).ping()
            with pytest.raises(StoreError, match="not an atcd broker"):
                open_store(url)  # the dispatch point pings URLs eagerly
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_invalid_urls_are_rejected_up_front(self):
        with pytest.raises(QueueError, match="invalid broker URL"):
            HttpQueue("ftp://host:1")
        with pytest.raises(StoreError, match="invalid broker URL"):
            HttpStore("http://host:1/some/path")

    @pytest.mark.parametrize("url", ["http://h:1/queues/x", "http://h:1/x?y"])
    def test_queue_urls_with_a_path_are_rejected(self, url):
        """A broker serves one queue at its base URL; nothing addresses a
        queue by path."""
        with pytest.raises(QueueError, match="expected just http://host:port"):
            HttpQueue(url)
        with pytest.raises(QueueError, match="expected just http://host:port"):
            open_queue(url)


class TestQueuePruneOverTheBroker:
    def test_prune_cli_against_a_broker_url(self, broker, capsys):
        with HttpQueue(broker.url) as queue:
            queue.submit([{"kind": "t"}, {"kind": "t"}])
            task = queue.claim("w", lease_seconds=30)
            queue.complete(task.task_id, "w", {"ok": True})
            assert main(["queue", "prune", broker.url, "--ttl", "0"]) == 0
            assert "pruned 1 finished tasks" in capsys.readouterr().out
            counts = queue.counts()
        assert counts["done"] == 0 and counts["pending"] == 1


class TestOneQueuePerBroker:
    """A broker serves at most one queue, at ``/queue/<op>``; a run that
    needs a queue of its own starts a broker of its own."""

    def test_queue_operations_over_http(self, broker):
        with HttpQueue(broker.url) as queue:
            ids = queue.submit([{"kind": "t", "i": i} for i in range(2)])
            task = queue.claim("w", lease_seconds=30)
            assert queue.complete(task.task_id, "w", {"ok": True})
            assert queue.cancel_pending(ids) == [ids[1]]
            counts = queue.counts()
        assert counts["done"] == 1 and counts["cancelled"] == 1

    def test_two_brokers_keep_their_queues_apart(self, tmp_path):
        with BrokerServer(queue_path=str(tmp_path / "alpha.sqlite")) as one, \
                BrokerServer(queue_path=str(tmp_path / "beta.sqlite")) as two:
            one.start()
            two.start()
            with HttpQueue(one.url) as alpha, HttpQueue(two.url) as beta:
                alpha.submit([{"kind": "t"}])
                alpha.set_meta("run", "alpha-run")
                assert alpha.counts()["pending"] == 1
                assert beta.counts()["pending"] == 0
                assert beta.get_meta("run") is None

    def test_ping_names_only_the_served_resources(self, broker):
        status, document = raw_request(broker, "GET", "/ping")
        assert status == 200
        assert set(document) == {
            "ok", "server", "wire_version", "queue", "store"
        }

    def test_queue_requests_to_a_store_only_broker_create_no_queue(
        self, tmp_path
    ):
        with BrokerServer(store_path=str(tmp_path / "store.sqlite")) as server:
            server.start()
            status, document = raw_request(
                server, "POST", "/queue/counts", body=b"{}"
            )
        assert status == 404 and document["kind"] == "not-found"
        assert [
            path.name for path in tmp_path.iterdir()
            if not path.name.startswith("store.sqlite")
        ] == []

    @pytest.mark.parametrize("argv", [
        ["queue", "create", "alpha"],
        ["queue", "list"],
        ["queue", "drop", "alpha"],
        ["serve", "--root", "queues"],
    ])
    def test_named_queue_cli_verbs_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestMalformedRequests:
    """A broken or hostile client gets a clean 4xx, never a hung server."""

    def test_garbage_json_body_is_a_400(self, broker):
        status, document = raw_request(
            broker, "POST", "/queue/submit", body=b"{not json",
        )
        assert status == 400
        assert "JSON" in document["error"]

    def test_non_object_body_is_a_400(self, broker):
        status, document = raw_request(
            broker, "POST", "/queue/submit", body=b"[1, 2]",
        )
        assert status == 400

    def test_missing_arguments_are_a_400(self, broker):
        status, document = raw_request(
            broker, "POST", "/queue/claim", body=b"{}",
        )
        assert status == 400
        assert document["kind"] == "bad-request"

    @pytest.mark.parametrize("task_ids", ['"t1"', '[1, 2]', '{"a": 1}'])
    def test_task_ids_must_be_a_list_of_strings(self, broker, task_ids):
        status, document = raw_request(
            broker, "POST", "/queue/tasks",
            body=f'{{"task_ids": {task_ids}}}'.encode(),
        )
        assert status == 400
        assert document["kind"] == "bad-request"

    def test_unknown_operation_is_a_400(self, broker):
        status, document = raw_request(
            broker, "POST", "/queue/nonsense", body=b"{}",
        )
        assert status == 400
        assert "unknown queue operation" in document["error"]

    def test_unknown_path_is_a_404(self, broker):
        status, _ = raw_request(broker, "GET", "/whatever")
        assert status == 404
        status, _ = raw_request(broker, "POST", "/queue/claim/extra",
                                body=b"{}")
        assert status == 404

    @pytest.mark.parametrize("method, path", [
        ("GET", "/queues"),
        ("POST", "/queues/create"),
        ("POST", "/queues/x/claim"),
    ])
    def test_named_queue_routes_are_unknown_endpoints(
        self, broker, method, path
    ):
        """No route addresses a queue by name; such paths get the plain
        unknown-endpoint 404 and the catch-all ``other`` route label."""
        requests = http_requests_total()
        before = requests.value(server="broker", route="other", status="404")
        status, document = raw_request(
            broker, method, path, body=b'{"name": "x"}'
        )
        assert status == 404
        assert document == {
            "ok": False,
            "error": f"unknown endpoint {path!r}",
            "kind": "not-found",
        }
        assert requests.value(
            server="broker", route="other", status="404"
        ) == before + 1
        assert requests.value(server="broker", route=path, status="404") == 0

    def test_malformed_store_document_is_a_400_not_a_crash(self, broker):
        status, document = raw_request(
            broker, "POST", "/store/get",
            body=json.dumps({
                "fingerprint": "f" * 64,
                "request": {"problem": "not-a-problem"},
            }).encode(),
        )
        assert status == 400
        # The server stays healthy for well-formed traffic.
        with HttpQueue(broker.url) as queue:
            assert queue.counts()["pending"] == 0

    def test_server_side_queue_error_maps_to_queue_error(self, broker):
        with HttpQueue(broker.url) as queue:
            with pytest.raises(QueueError, match="max_attempts"):
                queue.submit([{"kind": "x"}], max_attempts=0)


class TestAuthentication:
    @pytest.fixture
    def secured(self, paths, monkeypatch):
        # The token must not leak in from the test environment.
        monkeypatch.delenv("ATCD_BROKER_TOKEN", raising=False)
        queue_path, store_path = paths
        server = BrokerServer(queue_path=queue_path, store_path=store_path,
                              token="s3cret")
        server.start()
        yield server
        server.close()

    def test_missing_token_is_rejected(self, secured):
        with pytest.raises(QueueError, match="unauthorized"):
            HttpQueue(secured.url).counts()
        with pytest.raises(StoreError, match="unauthorized"):
            HttpStore(secured.url).summary()

    def test_wrong_token_is_rejected(self, secured):
        with pytest.raises(QueueError, match="unauthorized"):
            HttpQueue(secured.url, token="wrong").counts()

    def test_matching_token_is_accepted(self, secured):
        with HttpQueue(secured.url, token="s3cret") as queue:
            assert queue.counts()["pending"] == 0

    def test_token_read_from_environment(self, secured, monkeypatch):
        monkeypatch.setenv("ATCD_BROKER_TOKEN", "s3cret")
        with HttpQueue(secured.url) as queue:
            assert queue.counts()["pending"] == 0

    def test_ping_requires_the_token_too(self, secured):
        with pytest.raises(QueueError, match="not an atcd broker"):
            HttpQueue(secured.url).ping()


class TestServerRestartMidRun:
    def test_clients_reconnect_and_the_run_completes(self, paths):
        """Stop the broker while a worker is mid-run; restart it on the
        same port, against the same sqlite files.  The clients' retry /
        backoff must carry the run to completion with nothing lost."""
        queue_path, store_path = paths
        server = BrokerServer(queue_path=queue_path, store_path=store_path,
                              grace_seconds=0.0)
        server.start()
        host, port = server.host, server.port
        with HttpQueue(server.url, retries=8) as submitter:
            submitter.submit([{"kind": "t", "i": i} for i in range(6)])

        claimed_once = threading.Event()

        def executor(payload):
            claimed_once.set()
            return {"i": payload["i"]}

        worker_queue = HttpQueue(f"http://{host}:{port}", retries=8,
                                 backoff_seconds=0.05)
        worker = Worker(worker_queue, worker_id="w", poll_seconds=0.05,
                        executor=executor)
        reports = []
        thread = threading.Thread(target=lambda: reports.append(worker.run()))
        thread.start()
        try:
            assert claimed_once.wait(timeout=30), "worker never started"
            # Restart: same port, same files — a broker deploy mid-run.
            server.close()
            server = BrokerServer(queue_path=queue_path,
                                  store_path=store_path,
                                  host=host, port=port, grace_seconds=0.0)
            server.start()
            thread.join(timeout=60)
            assert not thread.is_alive(), "worker never finished the run"
        finally:
            worker.stop()
            thread.join(timeout=5)
            worker_queue.close()
            server.close()
        (report,) = reports
        # Every task completed exactly once; at most the one in flight
        # during the restart was retried (lost-response orphan lease).
        with BrokerServer(queue_path=queue_path, store_path=store_path) as final:
            final.start()
            with HttpQueue(final.url) as check:
                done = check.tasks(TaskState.DONE)
                assert len(done) == 6
                assert sorted(task.result["i"] for task in done) == list(range(6))

    def test_store_clients_survive_a_restart_too(self, paths):
        queue_path, store_path = paths
        server = BrokerServer(store_path=store_path)
        server.start()
        host, port = server.host, server.port
        model = factory()
        fingerprint = model_fingerprint(model)
        request = AnalysisRequest(Problem.CDPF)
        live = run_request(model, request)
        store = HttpStore(server.url, retries=8, backoff_seconds=0.05)
        try:
            store.put(fingerprint, request, live)
            server.close()
            server = BrokerServer(store_path=store_path, host=host, port=port)
            server.start()
            loaded = store.get(fingerprint, request)
            assert loaded is not None
            assert loaded.to_dict() == live.to_dict()
        finally:
            store.close()
            server.close()


class TestRetrySafety:
    def test_submit_retry_after_lost_response_does_not_duplicate(self, broker):
        """The response to a committed submit is lost mid-flight; the
        client's retry must get the original task ids back (dedupe key),
        not append the batch a second time."""
        queue = HttpQueue(broker.url, retries=3, backoff_seconds=0.01)
        transport = queue._transport
        real_round_trip = transport._round_trip
        lost = []

        def lossy(method, path, body):
            status, raw = real_round_trip(method, path, body)
            if path == "/queue/submit" and not lost:
                lost.append(True)  # the server committed; the reply died
                raise ConnectionResetError("response lost")
            return status, raw

        transport._round_trip = lossy
        try:
            ids = queue.submit([{"kind": "t", "i": i} for i in range(4)])
        finally:
            queue.close()
        assert lost, "the fault was never injected"
        assert len(ids) == 4
        with HttpQueue(broker.url) as check:
            assert check.counts() == {
                "pending": 4, "running": 0, "done": 0, "dead": 0,
                "cancelled": 0,
            }
            assert [task.task_id for task in check.tasks()] == ids

    def test_explicit_dedupe_key_round_trips_all_backends(
        self, tmp_path, broker
    ):
        from repro.distributed import SqliteQueue

        for queue in (
            SqliteQueue(str(tmp_path / "dedupe.sqlite")),
            HttpQueue(broker.url),
        ):
            with queue:
                first = queue.submit([{"i": 1}, {"i": 2}], dedupe_key="run-a")
                replay = queue.submit([{"i": 1}, {"i": 2}], dedupe_key="run-a")
                assert replay == first
                assert queue.counts()["pending"] == 2
                # A different key is a genuinely new batch.
                queue.submit([{"i": 3}], dedupe_key="run-b")
                assert queue.counts()["pending"] == 3


class TestKeepAliveHygiene:
    def test_unattached_resource_errors_do_not_desync_the_connection(
        self, paths
    ):
        """Early error replies (sent before the body is read) must drain
        the body; otherwise its bytes would be parsed as the next request
        on the kept-alive socket and garble every later call."""
        queue_path, _ = paths
        with BrokerServer(queue_path=queue_path) as server:
            server.start()
            store = HttpStore(server.url, retries=0)
            for _ in range(3):  # same client, same thread, same transport
                with pytest.raises(StoreError, match="serves no store"):
                    len(store)
            # The connection (and server) still serve well-formed traffic.
            with HttpQueue(server.url) as queue:
                assert queue.counts()["pending"] == 0

    def test_repeated_unauthorized_posts_keep_clean_errors(self, paths):
        """The real client on one kept-alive connection: each 401 stays a
        clean QueueError, never a garbled reply or a dropped socket."""
        queue_path, _ = paths
        with BrokerServer(queue_path=queue_path, token="t0ken") as server:
            server.start()
            queue = HttpQueue(server.url, token="wrong", retries=0)
            for _ in range(3):
                with pytest.raises(QueueError, match="unauthorized"):
                    queue.submit([{"kind": "x"}])
            queue.close()


    def test_clients_reconnect_after_an_idle_close(self, paths, monkeypatch):
        """The server retires a kept-alive socket left idle past its
        socket timeout; the clients' next calls go out again on a fresh
        connection, and nothing is lost or duplicated."""
        monkeypatch.setattr(JsonHandler, "timeout", 0.2)
        queue_path, store_path = paths
        with BrokerServer(
            queue_path=queue_path, store_path=store_path
        ) as server:
            server.start()
            queue = HttpQueue(server.url, retries=1, backoff_seconds=0.01)
            store = HttpStore(server.url, retries=1, backoff_seconds=0.01)
            try:
                assert queue.counts()["pending"] == 0
                assert len(store) == 0
                time.sleep(0.6)  # both sockets are closed by the server
                assert len(queue.submit([{"kind": "x"}])) == 1
                assert queue.counts()["pending"] == 1
                assert len(store) == 0
            finally:
                queue.close()
                store.close()


def _thread_socket(queue, opened):
    """One call on the calling thread; record the socket it went out on."""
    queue.counts()
    opened.append(queue._transport._local.held.connection.sock)


class TestConnectionLifetime:
    """A client's connection per thread closes when its thread ends or
    when the client closes, whichever comes first."""

    def test_close_closes_connections_opened_on_other_threads(self, broker):
        queue = HttpQueue(broker.url)
        opened = []
        ready = threading.Barrier(3, timeout=10)
        release = threading.Event()

        def call_and_stay():
            _thread_socket(queue, opened)
            ready.wait()
            release.wait(10)

        threads = [threading.Thread(target=call_and_stay) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            ready.wait()
            _thread_socket(queue, opened)
            assert len({id(sock) for sock in opened}) == 3
            assert all(sock.fileno() != -1 for sock in opened)
            queue.close()
            assert all(sock.fileno() == -1 for sock in opened)
        finally:
            release.set()
            for thread in threads:
                thread.join(10)
        # A thread calling again after the close reconnects.
        assert queue.counts()["pending"] == 0
        queue.close()

    def test_a_thread_connection_closes_when_the_thread_ends(self, broker):
        queue = HttpQueue(broker.url)
        opened = []
        thread = threading.Thread(target=_thread_socket, args=(queue, opened))
        thread.start()
        thread.join(10)
        assert opened[0].fileno() == -1
        assert not queue._transport._open
        queue.close()


class TestLostResponseReplays:
    """Transport-level: the server commits, the reply dies, the client
    retries — the caller must still see the truthful outcome."""

    def _lossy(self, queue, path_to_drop):
        transport = queue._transport
        real_round_trip = transport._round_trip
        dropped = []

        def lossy(method, path, body):
            status, raw = real_round_trip(method, path, body)
            if path == path_to_drop and not dropped:
                dropped.append(True)
                raise ConnectionResetError("response lost")
            return status, raw

        transport._round_trip = lossy
        return dropped

    def test_complete_replay_reports_success_not_lost_lease(self, broker):
        queue = HttpQueue(broker.url, retries=3, backoff_seconds=0.01)
        try:
            queue.submit([{"kind": "t"}])
            task = queue.claim("w", lease_seconds=30)
            dropped = self._lossy(queue, "/queue/complete")
            assert queue.complete(task.task_id, "w", {"answer": 7})
            assert dropped, "the fault was never injected"
            (done,) = queue.tasks(TaskState.DONE)
            assert done.result == {"answer": 7}
        finally:
            queue.close()

    def test_run_descriptor_cas_replay_still_wins(self, broker):
        """Coordinator._record_run's check-and-set: a replayed
        set_meta_if_absent of our own committed descriptor must read as
        the win it was, or the submission aborts itself."""
        queue = HttpQueue(broker.url, retries=3, backoff_seconds=0.01)
        try:
            dropped = self._lossy(queue, "/queue/set_meta_if_absent")
            assert queue.set_meta_if_absent("run", "{\"name\": \"mine\"}")
            assert dropped, "the fault was never injected"
            # A genuinely different writer still loses.
            assert not queue.set_meta_if_absent("run", "{\"name\": \"other\"}")
            assert queue.get_meta("run") == "{\"name\": \"mine\"}"
        finally:
            queue.close()


class TestWireVersion2:
    """Waits, the fused complete-and-claim, and the version gate."""

    def test_a_v1_broker_is_refused_up_front(self, monkeypatch, broker):
        from repro.net import server as server_module

        monkeypatch.setattr(server_module, "WIRE_VERSION", 1)
        with pytest.raises(QueueError, match="wire version 1"):
            open_queue(broker.url)

    @pytest.mark.parametrize("op, args", [
        ("claim", {"worker_id": "w", "lease_seconds": 30}),
        ("wait_finished", {"task_ids": ["task-000000"], "known": []}),
    ])
    @pytest.mark.parametrize("wait", [-1, "soon", True, None])
    def test_a_bad_wait_is_a_400(self, broker, op, args, wait):
        status, document = raw_request(
            broker, "POST", f"/queue/{op}",
            body=json.dumps({**args, "wait_seconds": wait}).encode(),
        )
        assert status == 400
        assert document["kind"] == "bad-request"
        assert "wait_seconds" in document["error"]

    def test_a_long_wait_is_clamped(self, broker, monkeypatch):
        from repro.net import server as server_module

        monkeypatch.setattr(server_module, "MAX_WAIT_SECONDS", 0.2)
        queue = HttpQueue(broker.url)
        started = time.monotonic()
        assert queue.claim("w", 30, wait_seconds=3600) is None
        assert time.monotonic() - started < 3.0
        queue.close()

    def test_fused_ops_get_their_own_route_labels(self, broker):
        queue = HttpQueue(broker.url)
        queue.submit([{"kind": "t"}])
        task = queue.claim("w", 30)
        queue.complete_and_claim(task.task_id, "w", {}, 30)
        queue.wait_finished([task.task_id], [], 0)
        for route in ("/queue/complete_and_claim", "/queue/wait_finished"):
            assert http_requests_total().value(
                server="broker", route=route, status="200"
            ) >= 1
        queue.close()

    def test_a_replayed_complete_and_claim_still_succeeds(self, broker):
        queue = HttpQueue(broker.url, retries=3, backoff_seconds=0.01)
        try:
            queue.submit([{"kind": "t"}] * 3)
            task = queue.claim("w", lease_seconds=30)
            dropped = TestLostResponseReplays()._lossy(
                queue, "/queue/complete_and_claim"
            )
            ok, following = queue.complete_and_claim(
                task.task_id, "w", {"answer": 7}, 30
            )
            assert dropped, "the fault was never injected"
            assert ok and following is not None
            # The lost response's task stays leased until it expires.
            assert queue.counts() == {
                "pending": 0, "running": 2, "done": 1, "dead": 0,
                "cancelled": 0,
            }
        finally:
            queue.close()

    def test_a_client_gone_mid_wait_is_not_a_server_error(
        self, broker, monkeypatch
    ):
        """A worker stopped during a waiting claim leaves no traceback
        behind: the late reply to a closed socket is dropped quietly."""
        import socket

        errors = []
        monkeypatch.setattr(
            broker._http, "handle_error",
            lambda request, address: errors.append(address),
        )
        body = json.dumps({
            "worker_id": "w", "lease_seconds": 30, "wait_seconds": 0.3,
        }).encode()
        client = socket.create_connection((broker.host, broker.port))
        client.sendall(
            b"POST /queue/claim HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        client.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, b"\x01\x00\x00\x00\x00\x00\x00\x00"
        )
        client.close()  # a reset, as from a killed process
        time.sleep(0.8)
        assert errors == []
        assert HttpQueue(broker.url).counts()["pending"] == 0  # still serving
