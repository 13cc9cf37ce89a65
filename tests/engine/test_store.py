"""Tests for the shared persistent result store and its session wiring.

Covers the hardening cases the store must survive in shared deployments:
corrupted database files, stale schema versions, concurrent writers from
separate processes, and cache poisoning (a stored result re-keyed to a
different model or request must never be served).
"""

import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.attacktree.builder import AttackTreeBuilder
from repro.attacktree.catalog import factory
from repro.core.problems import Problem
from repro.engine import (
    AnalysisRequest,
    AnalysisSession,
    NamespacedStore,
    SqliteStore,
    StoreError,
    model_fingerprint,
    open_store,
    run_request,
)
from repro.engine.store import STORE_SCHEMA_VERSION, request_key

from ..conftest import TwoHandles

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "results.sqlite")


@pytest.fixture(params=["sqlite", "sqlite-shared", "http"])
def any_store(request, store_path):
    """Both store implementations must share one semantics; ``http`` runs
    against a live ``atcd serve`` broker backed by a sqlite store, and
    ``sqlite-shared`` uses two handles on one file in turn."""
    if request.param == "http":
        from repro.net import BrokerServer, HttpStore

        server = BrokerServer(store_path=store_path)
        server.start()
        store = HttpStore(server.url)
        yield store
        store.close()
        server.close()
        return
    if request.param == "sqlite-shared":
        store = TwoHandles(SqliteStore(store_path), SqliteStore(store_path))
    else:
        store = SqliteStore(store_path)
    yield store
    store.close()


def factory_result(request=None):
    request = request or AnalysisRequest(Problem.CDPF)
    return run_request(factory(), request)


class TestRoundTrip:
    def test_get_returns_what_put_stored(self, any_store):
        request = AnalysisRequest(Problem.CDPF)
        result = factory_result(request)
        fingerprint = model_fingerprint(factory())
        any_store.put(fingerprint, request, result)
        loaded = any_store.get(fingerprint, request)
        assert loaded is not None
        assert loaded.to_dict() == result.to_dict()
        assert len(any_store) == 1
        assert any_store.stats.writes == 1 and any_store.stats.hits == 1

    def test_miss_on_unknown_request(self, any_store):
        fingerprint = model_fingerprint(factory())
        assert any_store.get(fingerprint, AnalysisRequest(Problem.CDPF)) is None
        assert any_store.stats.misses == 1

    def test_miss_on_other_fingerprint(self, any_store):
        request = AnalysisRequest(Problem.CDPF)
        any_store.put(model_fingerprint(factory()), request, factory_result(request))
        assert any_store.get("0" * 64, request) is None

    def test_last_writer_wins(self, any_store):
        request = AnalysisRequest(Problem.CDPF)
        fingerprint = model_fingerprint(factory())
        first = factory_result(request)
        second = factory_result(request)
        any_store.put(fingerprint, request, first)
        any_store.put(fingerprint, request, second)
        assert len(any_store) == 1
        loaded = any_store.get(fingerprint, request)
        assert loaded.wall_time_seconds == second.wall_time_seconds

    def test_requests_with_distinct_backends_get_distinct_rows(self, any_store):
        fingerprint = model_fingerprint(factory())
        plain = AnalysisRequest(Problem.CDPF)
        forced = AnalysisRequest(Problem.CDPF, backend="enumerative")
        any_store.put(fingerprint, plain, run_request(factory(), plain))
        any_store.put(fingerprint, forced, run_request(factory(), forced))
        assert len(any_store) == 2
        assert any_store.get(fingerprint, plain).backend == "bottom-up"
        assert any_store.get(fingerprint, forced).backend == "enumerative"

    def test_prune_everything(self, any_store):
        request = AnalysisRequest(Problem.CDPF)
        any_store.put(model_fingerprint(factory()), request, factory_result(request))
        assert any_store.prune() == 1
        assert len(any_store) == 0

    def test_prune_one_model_only(self, any_store):
        request = AnalysisRequest(Problem.CDPF)
        result = factory_result(request)
        any_store.put("a" * 64, request, result)
        any_store.put("b" * 64, request, result)
        assert any_store.prune(fingerprint="a" * 64) == 1
        assert len(any_store) == 1

    def test_int_and_float_parameters_share_one_key(self, any_store):
        # The session's in-memory dict treats budget=2 and budget=2.0 as
        # one key (Python numeric hashing); the store must agree.
        as_int = AnalysisRequest(Problem.DGC, budget=2)
        as_float = AnalysisRequest(Problem.DGC, budget=2.0)
        assert request_key(as_int) == request_key(as_float)
        fingerprint = model_fingerprint(factory())
        any_store.put(fingerprint, as_int, run_request(factory(), as_int))
        assert len(any_store) == 1
        loaded = any_store.get(fingerprint, as_float)
        assert loaded is not None and loaded.value == 200.0

    def test_summary_reports_entries(self, any_store):
        request = AnalysisRequest(Problem.CDPF)
        any_store.put(model_fingerprint(factory()), request, factory_result(request))
        summary = any_store.summary()
        assert summary["entries"] == 1
        assert summary["schema_version"] == STORE_SCHEMA_VERSION


class TestNamespacing:
    """Tenant isolation through :class:`NamespacedStore` views."""

    def test_namespaces_do_not_share_results(self, any_store):
        request = AnalysisRequest(Problem.CDPF)
        result = factory_result(request)
        fingerprint = model_fingerprint(factory())
        acme = NamespacedStore(any_store, "acme")
        globex = NamespacedStore(any_store, "globex")
        acme.put(fingerprint, request, result)
        # Same model, same request: the other tenant still misses.
        assert globex.get(fingerprint, request) is None
        assert acme.get(fingerprint, request) is not None
        # And the raw fingerprint is not readable outside a namespace.
        assert any_store.get(fingerprint, request) is None

    def test_poisoned_namespace_row_is_not_served(self, any_store):
        # A result written under tenant A's namespace cannot be replayed
        # to tenant B even by re-keying: the embedded-identity guard sees
        # the namespaced fingerprint mismatch and refuses.
        request = AnalysisRequest(Problem.CDPF)
        result = factory_result(request)
        fingerprint = model_fingerprint(factory())
        NamespacedStore(any_store, "acme").put(fingerprint, request, result)
        # Replaying acme's row under globex's key is a miss, never a hit.
        assert any_store.get(f"globex/{fingerprint}", request) is None

    def test_prune_is_scoped_to_the_namespace(self, any_store):
        request = AnalysisRequest(Problem.CDPF)
        result = factory_result(request)
        fingerprint = model_fingerprint(factory())
        acme = NamespacedStore(any_store, "acme")
        globex = NamespacedStore(any_store, "globex")
        acme.put(fingerprint, request, result)
        globex.put(fingerprint, request, result)
        assert acme.prune(fingerprint) == 1
        assert globex.get(fingerprint, request) is not None

    def test_prune_everything_is_refused_through_a_view(self, any_store):
        view = NamespacedStore(any_store, "acme")
        with pytest.raises(StoreError, match="namespaced view"):
            view.prune()

    def test_invalid_namespace_is_rejected(self, any_store):
        for bad in ("", "a/b", "../escape", "x" * 65, None):
            with pytest.raises(StoreError, match="namespace"):
                NamespacedStore(any_store, bad)

    def test_summary_carries_the_namespace(self, any_store):
        view = NamespacedStore(any_store, "acme")
        assert view.summary()["namespace"] == "acme"


class TestSqliteHardening:
    def test_corrupted_file_raises_store_error(self, store_path):
        Path(store_path).write_bytes(b"this is not a sqlite database\x00\x01")
        with pytest.raises(StoreError, match="cannot open result store"):
            SqliteStore(store_path)

    def test_corruption_after_open_is_a_store_error(self, store_path):
        store = SqliteStore(store_path)
        store.close()
        Path(store_path).write_bytes(b"\x00" * 4096)
        with pytest.raises(StoreError):
            store2 = SqliteStore(store_path)
            store2.get(model_fingerprint(factory()), AnalysisRequest(Problem.CDPF))

    def test_stale_schema_version_is_rejected(self, store_path):
        SqliteStore(store_path).close()
        with sqlite3.connect(store_path) as connection:
            connection.execute(
                "UPDATE store_meta SET value = '999' WHERE key = 'schema_version'"
            )
        with pytest.raises(StoreError, match="schema version '999'"):
            SqliteStore(store_path)

    def test_missing_schema_version_with_rows_is_rejected(self, store_path):
        # Rows of unknown vintage must not be silently re-stamped with the
        # current version...
        store = SqliteStore(store_path)
        request = AnalysisRequest(Problem.CDPF)
        store.put(model_fingerprint(factory()), request, factory_result(request))
        store.close()
        with sqlite3.connect(store_path) as connection:
            connection.execute("DELETE FROM store_meta")
        with pytest.raises(StoreError, match="schema version None"):
            SqliteStore(store_path)

    def test_missing_schema_version_on_empty_store_is_restamped(self, store_path):
        # ...but an *empty* file is indistinguishable from a fresh one.
        SqliteStore(store_path).close()
        with sqlite3.connect(store_path) as connection:
            connection.execute("DELETE FROM store_meta")
        store = SqliteStore(store_path)
        assert len(store) == 0
        store.close()

    def test_closed_store_refuses_operations(self, store_path):
        store = SqliteStore(store_path)
        store.close()
        with pytest.raises(StoreError, match="closed"):
            store.get(model_fingerprint(factory()), AnalysisRequest(Problem.CDPF))
        store.close()  # idempotent

    def test_foreign_database_is_never_blessed(self, tmp_path):
        # `atcd store stats ./myapp.sqlite` on some other application's
        # database must refuse, not create our tables inside it.
        foreign = str(tmp_path / "myapp.sqlite")
        with sqlite3.connect(foreign) as connection:
            connection.execute("CREATE TABLE users (id INTEGER PRIMARY KEY)")
        with pytest.raises(StoreError, match="not a result store"):
            SqliteStore(foreign)
        with sqlite3.connect(foreign) as connection:
            tables = {
                row[0]
                for row in connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
        assert tables == {"users"}

    def test_open_store_must_exist(self, tmp_path):
        with pytest.raises(StoreError, match="no result store"):
            open_store(str(tmp_path / "absent.sqlite"), must_exist=True)

    def test_open_store_creates_when_allowed(self, store_path):
        with open_store(store_path) as store:
            assert len(store) == 0
        assert Path(store_path).exists()


class TestCachePoisoning:
    """A row re-keyed to another model/request must be rejected, not served."""

    def _seed(self, store_path):
        request = AnalysisRequest(Problem.CDPF)
        result = factory_result(request)
        fingerprint = model_fingerprint(factory())
        store = SqliteStore(store_path)
        store.put(fingerprint, request, result)
        store.close()
        return fingerprint, request

    def test_rekeyed_fingerprint_is_never_served(self, store_path):
        _, request = self._seed(store_path)
        victim = "f" * 64  # pretend another model's key was overwritten
        with sqlite3.connect(store_path) as connection:
            connection.execute("UPDATE results SET fingerprint = ?", (victim,))
        store = SqliteStore(store_path)
        assert store.get(victim, request) is None
        assert store.stats.rejected == 1
        store.close()

    def test_rekeyed_request_is_never_served(self, store_path):
        fingerprint, _ = self._seed(store_path)
        other = AnalysisRequest(Problem.DGC, budget=99)
        with sqlite3.connect(store_path) as connection:
            connection.execute(
                "UPDATE results SET request_key = ?", (request_key(other),)
            )
        store = SqliteStore(store_path)
        assert store.get(fingerprint, other) is None
        assert store.stats.rejected == 1
        store.close()

    def test_tampered_payload_identity_is_never_served(self, store_path):
        # Rewrite the embedded identity too: the guard's last line of
        # defence is that the payload's own request must match the key.
        fingerprint, request = self._seed(store_path)
        with sqlite3.connect(store_path) as connection:
            payload = json.loads(
                connection.execute("SELECT payload FROM results").fetchone()[0]
            )
            payload["result"]["request"] = {"problem": "dgc", "budget": 99}
            connection.execute(
                "UPDATE results SET payload = ?", (json.dumps(payload),)
            )
        store = SqliteStore(store_path)
        assert store.get(fingerprint, request) is None
        assert store.stats.rejected == 1
        store.close()

    def test_garbage_payload_is_a_miss_not_a_crash(self, store_path):
        fingerprint, request = self._seed(store_path)
        with sqlite3.connect(store_path) as connection:
            connection.execute("UPDATE results SET payload = 'not json at all'")
        store = SqliteStore(store_path)
        assert store.get(fingerprint, request) is None
        assert store.stats.rejected == 1
        store.close()


class TestEviction:
    """`atcd store prune --ttl/--max-bytes`: oldest-first, bounded stores."""

    def _fill(self, store, budgets):
        fingerprint = model_fingerprint(factory())
        for budget in budgets:
            request = AnalysisRequest(Problem.DGC, budget=budget)
            store.put(fingerprint, request, run_request(factory(), request))
        return fingerprint

    def _backdate(self, store_path, budget_older_than, seconds):
        # Shift created_unix into the past for the first rows written.
        with sqlite3.connect(store_path) as connection:
            connection.execute(
                "UPDATE results SET created_unix = created_unix - ? "
                "WHERE rowid <= ?",
                (seconds, budget_older_than),
            )

    def test_evict_noop_without_bounds(self, any_store):
        self._fill(any_store, [1, 2])
        assert any_store.evict() == 0
        assert len(any_store) == 2

    def test_ttl_evicts_only_old_rows(self, store_path):
        store = SqliteStore(store_path)
        self._fill(store, [1, 2, 3, 4])
        store.close()
        self._backdate(store_path, budget_older_than=2, seconds=3600)
        store = SqliteStore(store_path)
        assert store.evict(ttl_seconds=60) == 2
        assert len(store) == 2
        fingerprint = model_fingerprint(factory())
        # The fresh rows survive, the backdated ones are gone.
        assert store.get(fingerprint, AnalysisRequest(Problem.DGC, budget=4)) \
            is not None
        assert store.get(fingerprint, AnalysisRequest(Problem.DGC, budget=1)) \
            is None
        store.close()

    def test_max_bytes_evicts_oldest_first_until_file_fits(self, store_path):
        store = SqliteStore(store_path)
        self._fill(store, list(range(1, 31)))
        store.close()
        self._backdate(store_path, budget_older_than=15, seconds=3600)
        store = SqliteStore(store_path)
        before = os.path.getsize(store_path)
        bound = before // 2
        dropped = store.evict(max_bytes=bound)
        assert dropped > 0
        assert os.path.getsize(store_path) <= bound
        fingerprint = model_fingerprint(factory())
        # Oldest-first: the backdated early rows went before the fresh ones.
        assert store.get(fingerprint, AnalysisRequest(Problem.DGC, budget=1)) \
            is None
        assert store.get(fingerprint, AnalysisRequest(Problem.DGC, budget=30)) \
            is not None
        store.close()

    def test_max_bytes_below_page_overhead_empties_the_store(self, store_path):
        store = SqliteStore(store_path)
        self._fill(store, [1, 2])
        assert store.evict(max_bytes=1) == 2
        assert len(store) == 0
        store.close()

    def test_negative_bounds_are_rejected(self, any_store):
        with pytest.raises(ValueError, match="ttl_seconds"):
            any_store.evict(ttl_seconds=-1)
        with pytest.raises(ValueError, match="max_bytes"):
            any_store.evict(max_bytes=-1)


_WRITER_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.attacktree.catalog import factory
from repro.core.problems import Problem
from repro.engine import AnalysisRequest, SqliteStore, model_fingerprint, run_request

path, worker = sys.argv[1], int(sys.argv[2])
model = factory()
fingerprint = model_fingerprint(model)
store = SqliteStore(path)
for i in range(20):
    budget = worker * 100 + i  # distinct keys per worker
    request = AnalysisRequest(Problem.DGC, budget=budget)
    store.put(fingerprint, request, run_request(model, request))
shared = AnalysisRequest(Problem.CDPF)  # both workers fight over this row
store.put(fingerprint, shared, run_request(model, shared))
assert store.get(fingerprint, shared) is not None
store.close()
print("ok")
"""


class TestConcurrentWriters:
    def test_two_processes_write_one_store(self, store_path):
        """Two separate OS processes hammer the same file; nothing is lost."""
        script = _WRITER_SCRIPT.format(src=SRC)
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script, store_path, str(worker)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for worker in (1, 2)
        ]
        for worker in workers:
            out, err = worker.communicate(timeout=120)
            assert worker.returncode == 0, err
            assert out.strip() == "ok"
        store = SqliteStore(store_path)
        # 20 distinct rows per worker + the single contended row.
        assert len(store) == 41
        fingerprint = model_fingerprint(factory())
        assert store.get(fingerprint, AnalysisRequest(Problem.CDPF)) is not None
        for worker, i in ((1, 0), (1, 19), (2, 0), (2, 19)):
            request = AnalysisRequest(Problem.DGC, budget=worker * 100 + i)
            assert store.get(fingerprint, request) is not None
        store.close()


def _lock_wal_pragmas(monkeypatch, count):
    """Make each new connection's first ``count`` WAL pragmas fail the way
    sqlite fails them when another process opens the same fresh file."""

    class Connection(sqlite3.Connection):
        locked = count

        def execute(self, sql, *args):
            if sql.startswith("PRAGMA journal_mode") and self.locked:
                self.locked -= 1
                raise sqlite3.OperationalError("database is locked")
            return super().execute(sql, *args)

    connect = sqlite3.connect
    monkeypatch.setattr(
        sqlite3, "connect",
        lambda *args, **kwargs: connect(*args, factory=Connection, **kwargs),
    )


class TestOpenRace:
    def test_locked_wal_pragma_is_retried(self, store_path, monkeypatch):
        _lock_wal_pragmas(monkeypatch, 1)
        with SqliteStore(store_path) as store:
            assert len(store) == 0

    def test_retry_is_bounded_by_the_connection_timeout(
        self, store_path, monkeypatch
    ):
        _lock_wal_pragmas(monkeypatch, 10 ** 6)
        with pytest.raises(StoreError, match="database is locked"):
            SqliteStore(store_path, timeout=0.05)

    def test_retried_open_leaves_the_store_in_wal_mode(
        self, store_path, monkeypatch
    ):
        _lock_wal_pragmas(monkeypatch, 3)
        SqliteStore(store_path).close()
        monkeypatch.undo()
        connection = sqlite3.connect(store_path)
        try:
            mode = connection.execute("PRAGMA journal_mode").fetchone()[0]
        finally:
            connection.close()
        assert mode.lower() == "wal"

    def test_other_pragma_errors_are_not_retried(self, store_path,
                                                 monkeypatch):
        attempts = []

        class Connection(sqlite3.Connection):
            def execute(self, sql, *args):
                if sql.startswith("PRAGMA journal_mode"):
                    attempts.append(sql)
                    raise sqlite3.OperationalError("disk I/O error")
                return super().execute(sql, *args)

        connect = sqlite3.connect
        monkeypatch.setattr(
            sqlite3, "connect",
            lambda *args, **kwargs: connect(*args, factory=Connection,
                                            **kwargs),
        )
        with pytest.raises(StoreError, match="disk I/O error"):
            SqliteStore(store_path, timeout=30)
        assert len(attempts) == 1


class TestSessionWiring:
    def test_read_through_across_sessions(self, any_store):
        first = AnalysisSession(factory(), store=any_store)
        cold = first.run(AnalysisRequest(Problem.CDPF))
        assert not cold.cache_hit and first.stats.store_hits == 0

        second = AnalysisSession(factory(), store=any_store)
        warm = second.run(AnalysisRequest(Problem.CDPF))
        assert warm.cache_hit
        assert warm.front.values() == cold.front.values()
        assert second.stats.hits == 1 and second.stats.store_hits == 1

    def test_store_hit_installs_in_memory_entry(self, any_store):
        AnalysisSession(factory(), store=any_store).run(AnalysisRequest(Problem.CDPF))
        session = AnalysisSession(factory(), store=any_store)
        session.run(AnalysisRequest(Problem.CDPF))
        session.run(AnalysisRequest(Problem.CDPF))
        # Second repeat is served by the session dict, not the store again.
        assert session.stats.hits == 2 and session.stats.store_hits == 1

    def test_different_model_never_reads_anothers_results(self, any_store):
        AnalysisSession(factory(), store=any_store).run(AnalysisRequest(Problem.CDPF))
        builder = AttackTreeBuilder()
        builder.bas("a", cost=1, damage=7)
        builder.or_gate("root", ["a"])
        other = builder.build_cd(root="root")
        session = AnalysisSession(other, store=any_store)
        result = session.run(AnalysisRequest(Problem.CDPF))
        assert not result.cache_hit
        assert session.stats.store_hits == 0

    def test_process_batch_populates_store(self, any_store):
        requests = [AnalysisRequest(Problem.DGC, budget=b) for b in (1, 2, 3)]
        session = AnalysisSession(factory(), store=any_store)
        session.run_batch(requests, executor="process")
        assert len(any_store) == 3

        warm = AnalysisSession(factory(), store=any_store)
        results = warm.run_batch(requests, executor="process")
        assert all(result.cache_hit for result in results)
        assert warm.stats.hits == 3 and warm.stats.store_hits == 3
        assert warm.stats.misses == 0

    def test_sessions_without_store_unaffected(self):
        session = AnalysisSession(factory())
        assert session.store is None
        result = session.run(AnalysisRequest(Problem.CDPF))
        assert not result.cache_hit

    def test_broken_store_degrades_to_cache_off(self, store_path):
        # A store failing mid-session (here: closed underneath, the same
        # error surface as disk-full or a lock timeout) must not abort
        # analyses that would succeed without any cache.
        store = SqliteStore(store_path)
        store.close()
        session = AnalysisSession(factory(), store=store)
        result = session.run(AnalysisRequest(Problem.CDPF))
        assert result.front is not None and not result.cache_hit
        # In-memory caching still works after degradation.
        assert session.run(AnalysisRequest(Problem.CDPF)).cache_hit
        assert session.stats.store_hits == 0

    def test_broken_store_degrades_process_batches_too(self, store_path):
        store = SqliteStore(store_path)
        store.close()
        session = AnalysisSession(factory(), store=store)
        requests = [AnalysisRequest(Problem.DGC, budget=b) for b in (1, 2)]
        results = session.run_batch(requests, executor="process")
        assert [result.value for result in results] == [200.0, 200.0]
