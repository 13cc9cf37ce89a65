"""Shared persistent result stores: out-of-process caching for sessions.

A *result store* maps ``(model fingerprint, request)`` to a previously
computed :class:`~repro.engine.requests.AnalysisResult`.  The key layout is
exactly the one :class:`~repro.engine.session.AnalysisSession` already uses
for its in-process dict — the fingerprint is the SHA-256 of the model's
canonical JSON, the request identity is :meth:`AnalysisRequest.cache_key`
(problem, budget, threshold, backend) — so a store is simply the
session cache made durable: repeated bench runs, process-pool workers and
entirely separate processes all share results instead of recomputing them.

:class:`SqliteStore` is the local implementation: a single sqlite file,
safe for concurrent readers and writers across threads *and* processes (WAL
journaling plus sqlite's own file locking with a busy timeout).  The schema
is versioned; opening a file written by an incompatible schema fails with a
clear :class:`StoreError` instead of serving garbage.

A second implementation lives in :mod:`repro.net`:
:class:`~repro.net.HttpStore` speaks to an ``atcd serve`` broker over
JSON/HTTP, for multi-host deployments with no shared filesystem;
:func:`open_store` dispatches ``http(s)://`` URLs to it.

Every stored record embeds its own fingerprint and request identity and is
re-verified on read — a row that was tampered with, corrupted, or re-keyed
(cache poisoning) is *rejected*, never served.  Invalidation is therefore
automatic on model change (a different model has a different fingerprint
and simply never matches) and explicit via :meth:`ResultStore.prune`.
"""

from __future__ import annotations

import json
import os
import re
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Protocol, Tuple, runtime_checkable

from ..obs import families as obs_families
from .requests import AnalysisRequest, AnalysisResult

__all__ = [
    "STORE_SCHEMA_VERSION",
    "StoreError",
    "StoreStats",
    "ResultStore",
    "NamespacedStore",
    "SqliteStore",
    "open_store",
    "request_key",
]

#: Version of the persisted record/table layout.  Bump on any incompatible
#: change; old files then fail loudly instead of being misread.
STORE_SCHEMA_VERSION = 1


class StoreError(ValueError):
    """A store file is unusable: corrupted, locked out, or wrong schema.

    Subclasses ``ValueError`` so CLI entry points report it as a one-line
    user error (exit code 2), consistent with the other engine errors.
    """


def _canonical_json_value(value: Any) -> Any:
    """Normalize numbers so int/float spellings of one value share a key.

    The session's in-memory dict follows Python's numeric hashing, where
    ``budget=2`` and ``budget=2.0`` are the same key; their JSON spellings
    differ.  Writing integral floats as ints makes both produce the same
    store key, keeping the store's identity exactly as wide as the
    session's.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (list, tuple)):
        return [_canonical_json_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _canonical_json_value(item) for key, item in value.items()}
    return value


def request_key(request: AnalysisRequest) -> str:
    """The canonical string identity of a request, used as the store key.

    A sorted-keys JSON encoding of exactly the fields
    :meth:`AnalysisRequest.cache_key` hashes (problem, budget, threshold,
    backend), with integral floats normalized to ints — identical
    across processes and equal whenever the session's in-memory keys are.
    """
    return json.dumps(_canonical_json_value(request.to_dict()), sort_keys=True)


@dataclass
class StoreStats:
    """Per-instance counters of one store (not persisted)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Lookups that found a row but refused to serve it: embedded identity
    #: did not match the key (tampering/corruption) or the payload did not
    #: parse.  Rejected lookups also count as misses.
    rejected: int = 0


# Process-wide counters beside the per-instance StoreStats: every sqlite
# store in this process (NamespacedStore delegates, so wrapped stores count
# once) feeds the same exposition families.
def _record_lookup(result: str) -> None:
    obs_families.store_lookups_total().inc(result=result)


def _record_write(payload_bytes: int) -> None:
    obs_families.store_writes_total().inc()
    obs_families.store_written_bytes_total().inc(payload_bytes)


def _record_evictions(count: int, reason: str) -> None:
    if count > 0:
        obs_families.store_evictions_total().inc(count, reason=reason)


def _encode_record(
    fingerprint: str, key: str, result: AnalysisResult
) -> str:
    """Serialize one store value, embedding its own identity for the guard."""
    return json.dumps(
        {
            "store_schema": STORE_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "request_key": key,
            "result": result.to_dict(),
        },
        sort_keys=True,
    )


def _decode_record(
    payload: str, fingerprint: str, key: str
) -> Optional[AnalysisResult]:
    """Parse and verify one store value; ``None`` when it must not be served.

    The guard re-checks the *embedded* identity against the requested one:
    a row whose key columns were rewritten to a different model or request
    (cache poisoning) still carries its original identity inside the
    payload and is rejected here.
    """
    try:
        record = json.loads(payload)
        if not isinstance(record, dict):
            return None
        if record.get("store_schema") != STORE_SCHEMA_VERSION:
            return None
        if record.get("fingerprint") != fingerprint:
            return None
        if record.get("request_key") != key:
            return None
        result = AnalysisResult.from_dict(record["result"])
    except (ValueError, TypeError, KeyError):
        return None
    # Belt and braces: the result's own request must agree with the key it
    # is being served under.
    if request_key(result.request) != key:
        return None
    return result


def _validate_eviction_bounds(
    ttl_seconds: Optional[float], max_bytes: Optional[int]
) -> None:
    if ttl_seconds is not None and ttl_seconds < 0:
        raise ValueError(
            f"ttl_seconds must be non-negative, got {ttl_seconds!r}"
        )
    if max_bytes is not None and max_bytes < 0:
        raise ValueError(f"max_bytes must be non-negative, got {max_bytes!r}")


@runtime_checkable
class ResultStore(Protocol):
    """What sessions, the bench harness and the CLI require of a store."""

    stats: StoreStats

    def get(
        self, fingerprint: str, request: AnalysisRequest
    ) -> Optional[AnalysisResult]:
        """The stored result for ``(fingerprint, request)``, or ``None``."""
        ...

    def put(
        self, fingerprint: str, request: AnalysisRequest, result: AnalysisResult
    ) -> None:
        """Persist one result (last writer wins on the same key)."""
        ...

    def prune(self, fingerprint: Optional[str] = None) -> int:
        """Delete stored results (optionally one model's); returns count."""
        ...

    def evict(
        self,
        ttl_seconds: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        """Age/size-bounded eviction (oldest first); returns count dropped."""
        ...

    def __len__(self) -> int:
        """Number of stored results."""
        ...

    def summary(self) -> Dict[str, Any]:
        """JSON-compatible description for ``atcd store stats``."""
        ...

    def close(self) -> None:
        """Release any underlying resources (idempotent)."""
        ...


#: Grammar of store namespaces (tenant names).  The namespace becomes a
#: key prefix, so it must be distinguishable from raw fingerprints: the
#: separator is ``/``, which cannot appear in a hex SHA-256 digest, and the
#: namespace itself may not contain it.
_NAMESPACE_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class NamespacedStore:
    """A view of another store under a fingerprint namespace.

    Multi-tenant isolation for the service layer: each tenant's results
    live under fingerprint ``<namespace>/<model-fingerprint>``, so two
    tenants submitting the *same* model never read — and can never
    poison — each other's cache rows.  The embedded-identity guard keeps
    working unchanged because writes and reads both happen under the
    namespaced fingerprint: the record embeds it, the lookup re-checks it.

    The wrapper delegates storage (and the shared ``stats`` counters) to
    the underlying store; ``evict``/``summary``/``__len__``/``close`` are
    store-wide pass-throughs.  ``prune(None)`` — "delete everything" — is
    refused through a namespaced view: the protocol has no prefix-scoped
    delete, and silently wiping *other* tenants' rows would be exactly the
    cross-tenant damage this wrapper exists to prevent.
    """

    def __init__(self, store: "ResultStore", namespace: str) -> None:
        if not isinstance(namespace, str) or not _NAMESPACE_PATTERN.fullmatch(
            namespace
        ):
            raise StoreError(
                f"invalid store namespace {namespace!r}: namespaces are 1-64 "
                "characters from [A-Za-z0-9_.-], starting with a letter or digit"
            )
        self._store = store
        self.namespace = namespace

    @property
    def stats(self) -> StoreStats:
        return self._store.stats

    def _key(self, fingerprint: str) -> str:
        return f"{self.namespace}/{fingerprint}"

    def get(
        self, fingerprint: str, request: AnalysisRequest
    ) -> Optional[AnalysisResult]:
        return self._store.get(self._key(fingerprint), request)

    def put(
        self, fingerprint: str, request: AnalysisRequest, result: AnalysisResult
    ) -> None:
        self._store.put(self._key(fingerprint), request, result)

    def prune(self, fingerprint: Optional[str] = None) -> int:
        if fingerprint is None:
            raise StoreError(
                "cannot prune all results through a namespaced view; "
                "prune the underlying store instead"
            )
        return self._store.prune(self._key(fingerprint))

    def evict(
        self,
        ttl_seconds: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        return self._store.evict(ttl_seconds=ttl_seconds, max_bytes=max_bytes)

    def __len__(self) -> int:
        return len(self._store)

    def summary(self) -> Dict[str, Any]:
        summary = dict(self._store.summary())
        summary["namespace"] = self.namespace
        return summary

    def close(self) -> None:
        self._store.close()

    def __enter__(self) -> "NamespacedStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _enable_wal(connection: sqlite3.Connection, timeout: float) -> None:
    """Switch ``connection`` to WAL journaling, waiting out lock contention.

    WAL lets readers proceed while a writer commits; sqlite falls back
    transparently where the filesystem cannot support it.  When several
    processes open one fresh file together, sqlite fails this pragma with
    "database is locked" at once, without consulting the busy handler, so
    it is retried here for up to the connection's own ``timeout``.
    """
    deadline = time.monotonic() + timeout
    delay = 0.001
    while True:
        try:
            connection.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as error:
            if "locked" not in str(error) or time.monotonic() >= deadline:
                raise
        time.sleep(delay)
        delay = min(delay * 2, 0.05)


class SqliteStore:
    """A persistent, concurrency-safe :class:`ResultStore` in one sqlite file.

    Parameters
    ----------
    path:
        Database file; created (with its schema) when absent.
    timeout:
        Seconds a writer waits for sqlite's file lock before failing —
        this is what makes concurrent writers from several processes
        serialize instead of erroring.

    The connection is shared across threads behind a lock; cross-process
    concurrency is handled by sqlite itself (WAL journaling where the
    filesystem supports it).  Opening a non-database file or a file written
    by a different schema version raises :class:`StoreError`.
    """

    def __init__(self, path: str, timeout: float = 30.0) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self.stats = StoreStats()
        self._closed = False
        self._connection: Optional[sqlite3.Connection] = None
        try:
            self._connection = sqlite3.connect(
                self.path, timeout=timeout, check_same_thread=False
            )
            _enable_wal(self._connection, timeout)
            self._initialize_schema()
        except sqlite3.Error as error:
            if self._connection is not None:
                self._connection.close()
            raise StoreError(
                f"cannot open result store {self.path!r}: {error}"
            ) from error

    def _initialize_schema(self) -> None:
        # Never bless a foreign database: a file that already has tables
        # but none of ours is some other application's data — creating our
        # schema inside it (even from a read-only-in-spirit command like
        # `atcd store stats`) would be silent corruption.
        has_meta = self._connection.execute(
            "SELECT COUNT(*) FROM sqlite_master "
            "WHERE type = 'table' AND name = 'store_meta'"
        ).fetchone()[0]
        foreign = self._connection.execute(
            "SELECT COUNT(*) FROM sqlite_master "
            "WHERE type IN ('table', 'view') "
            "AND name NOT IN ('store_meta', 'results') "
            "AND name NOT LIKE 'sqlite_%'"
        ).fetchone()[0]
        if foreign and not has_meta:
            self._connection.close()
            raise StoreError(
                f"{self.path!r} is not a result store: it contains unrelated "
                "tables; refusing to create the store schema inside it"
            )
        with self._connection:
            self._connection.execute(
                "CREATE TABLE IF NOT EXISTS store_meta ("
                " key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            self._connection.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                " fingerprint TEXT NOT NULL,"
                " request_key TEXT NOT NULL,"
                " problem TEXT NOT NULL,"
                " backend TEXT NOT NULL,"
                " payload TEXT NOT NULL,"
                " created_unix REAL NOT NULL,"
                " PRIMARY KEY (fingerprint, request_key))"
            )
            row = self._connection.execute(
                "SELECT value FROM store_meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                # Only an *empty* store may be stamped with this build's
                # version: rows of unknown vintage must not be blessed.
                entries = self._connection.execute(
                    "SELECT COUNT(*) FROM results"
                ).fetchone()[0]
                if not entries:
                    self._connection.execute(
                        "INSERT OR IGNORE INTO store_meta (key, value) "
                        "VALUES (?, ?)",
                        ("schema_version", str(STORE_SCHEMA_VERSION)),
                    )
                    row = (str(STORE_SCHEMA_VERSION),)
        if row is None or row[0] != str(STORE_SCHEMA_VERSION):
            found = None if row is None else row[0]
            self._connection.close()
            raise StoreError(
                f"result store {self.path!r} has schema version {found!r}; "
                f"this build reads version {STORE_SCHEMA_VERSION}. "
                "Recreate the store (or prune it with a matching build)."
            )

    def _execute(self, sql: str, parameters: Tuple[Any, ...] = ()) -> sqlite3.Cursor:
        if self._closed:
            raise StoreError(f"result store {self.path!r} is closed")
        try:
            with self._lock, self._connection:
                return self._connection.execute(sql, parameters)
        except sqlite3.Error as error:
            raise StoreError(
                f"result store {self.path!r} failed: {error}"
            ) from error

    # ------------------------------------------------------------------ #
    # ResultStore interface
    # ------------------------------------------------------------------ #
    def get(
        self, fingerprint: str, request: AnalysisRequest
    ) -> Optional[AnalysisResult]:
        key = request_key(request)
        row = self._execute(
            "SELECT payload FROM results WHERE fingerprint = ? AND request_key = ?",
            (fingerprint, key),
        ).fetchone()
        if row is None:
            self.stats.misses += 1
            _record_lookup("miss")
            return None
        result = _decode_record(row[0], fingerprint, key)
        if result is None:
            self.stats.rejected += 1
            self.stats.misses += 1
            _record_lookup("rejected")
            return None
        self.stats.hits += 1
        _record_lookup("hit")
        return result

    def put(
        self, fingerprint: str, request: AnalysisRequest, result: AnalysisResult
    ) -> None:
        key = request_key(request)
        payload = _encode_record(fingerprint, key, result)
        self._execute(
            "INSERT OR REPLACE INTO results "
            "(fingerprint, request_key, problem, backend, payload, created_unix) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (
                fingerprint,
                key,
                request.problem.value,
                result.backend,
                payload,
                time.time(),
            ),
        )
        self.stats.writes += 1
        _record_write(len(payload))

    def prune(self, fingerprint: Optional[str] = None) -> int:
        if fingerprint is None:
            cursor = self._execute("DELETE FROM results")
        else:
            cursor = self._execute(
                "DELETE FROM results WHERE fingerprint = ?", (fingerprint,)
            )
        return cursor.rowcount

    def _vacuum(self) -> None:
        """Reclaim deleted pages so the file size reflects the contents.

        Checkpoints the WAL first — ``os.path.getsize`` only sees the main
        database file, and eviction's size bound must measure what actually
        stays on disk.
        """
        if self._closed:
            raise StoreError(f"result store {self.path!r} is closed")
        try:
            with self._lock:
                # Both statements run in autocommit (VACUUM refuses to run
                # inside a transaction, and _execute's context manager
                # would start one).
                self._connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
                self._connection.execute("VACUUM")
        except sqlite3.Error as error:
            raise StoreError(
                f"result store {self.path!r} failed: {error}"
            ) from error

    def evict(
        self,
        ttl_seconds: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        """Age/size-bounded eviction, oldest rows first.

        ``ttl_seconds`` drops every result older than that horizon;
        ``max_bytes`` then deletes oldest-first in batches (vacuuming
        between rounds) until the database *file* fits under the bound or
        is empty — an empty store keeps its fixed page overhead, so a
        bound below ~16 KiB empties the store without erroring.  This is
        what keeps long-lived queue/worker deployments from growing the
        store without limit.
        """
        _validate_eviction_bounds(ttl_seconds, max_bytes)
        if ttl_seconds is None and max_bytes is None:
            return 0
        dropped = 0
        if ttl_seconds is not None:
            cutoff = time.time() - ttl_seconds
            ttl_dropped = self._execute(
                "DELETE FROM results WHERE created_unix < ?", (cutoff,)
            ).rowcount
            dropped += ttl_dropped
            _record_evictions(ttl_dropped, "ttl")
        if max_bytes is not None:
            size_dropped = 0
            while True:
                self._vacuum()
                try:
                    size = os.path.getsize(self.path)
                except OSError:
                    break
                if size <= max_bytes:
                    break
                entries = len(self)
                if entries == 0:
                    break
                batch = max(1, entries // 4)
                cursor = self._execute(
                    "DELETE FROM results WHERE rowid IN ("
                    " SELECT rowid FROM results"
                    " ORDER BY created_unix ASC, rowid ASC LIMIT ?)",
                    (batch,),
                )
                if cursor.rowcount == 0:
                    break
                size_dropped += cursor.rowcount
            dropped += size_dropped
            _record_evictions(size_dropped, "size")
        elif dropped:
            self._vacuum()
        return dropped

    def __len__(self) -> int:
        row = self._execute("SELECT COUNT(*) FROM results").fetchone()
        return int(row[0])

    def summary(self) -> Dict[str, Any]:
        entries = len(self)
        models = int(
            self._execute(
                "SELECT COUNT(DISTINCT fingerprint) FROM results"
            ).fetchone()[0]
        )
        by_cell = {
            f"{problem}/{backend}": count
            for problem, backend, count in self._execute(
                "SELECT problem, backend, COUNT(*) FROM results "
                "GROUP BY problem, backend ORDER BY problem, backend"
            ).fetchall()
        }
        try:
            size_bytes = os.path.getsize(self.path)
        except OSError:
            size_bytes = 0
        return {
            "kind": "sqlite",
            "path": self.path,
            "schema_version": STORE_SCHEMA_VERSION,
            "entries": entries,
            "models": models,
            "by_problem_backend": by_cell,
            "size_bytes": size_bytes,
        }

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            if self._connection is not None:
                self._connection.close()

    def __enter__(self) -> "SqliteStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def open_store(path: str, must_exist: bool = False) -> ResultStore:
    """Open the result store at ``path`` — a sqlite file or a broker URL.

    This is the single URL-dispatch point of the store layer: an
    ``http://``/``https://`` value returns a :class:`repro.net.HttpStore`
    speaking to an ``atcd serve`` broker (token from
    ``$ATCD_BROKER_TOKEN``), anything else opens (or creates) a local
    :class:`SqliteStore`.

    With ``must_exist=True`` a missing file is a :class:`StoreError`
    instead of a silently created empty store — the right behaviour for
    inspection commands like ``atcd store stats``.  Broker URLs are
    always pinged (a URL cannot be "created", only reached): a typo'd
    store URL must fail here, up front, with one clear line — not
    degrade every task of a run to cache-off after a full retry budget
    each.
    """
    if path.startswith(("http://", "https://")):
        from ..net.client import HttpStore

        store = HttpStore(path)
        store.ping()
        return store
    if must_exist and not os.path.exists(path):
        raise StoreError(f"no result store at {path!r}")
    return SqliteStore(path)
