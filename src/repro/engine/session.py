"""Analysis sessions: per-model caching and batch execution.

An :class:`AnalysisSession` owns one model and executes
:class:`~repro.engine.requests.AnalysisRequest` objects against it through
a :class:`~repro.engine.registry.BackendRegistry`.  Results are cached by
``(model fingerprint, request)`` — the fingerprint is a SHA-256 digest of
the model's canonical JSON serialization, so two sessions over structurally
identical models share nothing but *would* agree on keys, which is what a
future shared (e.g. out-of-process) cache needs.

Batches run sequentially by default; ``executor="process"`` fans them out
over a :class:`~concurrent.futures.ProcessPoolExecutor` for true CPU
parallelism on the solver hot path (the solvers are pure Python, so threads
would only contend for the GIL).  The model crosses the process boundary
once per worker (via its canonical JSON form, installed by a pool
initializer); each request and result crosses as its JSON dict.  Workers
resolve backends against their own process-wide registry, so the process
executor requires the default built-in backends.

Cache hits are always served in the parent process; only misses are
dispatched, and duplicate misses within one batch are computed once.
"""

from __future__ import annotations

import copy
import hashlib
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..attacktree import serialization
from ..core.problems import Problem
from ..obs import families as obs_families
from ..obs.trace import span as trace_span
from .backend import Model, model_shape, problem_setting
from .registry import BackendRegistry, shared_registry
from .requests import AnalysisRequest, AnalysisResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .store import ResultStore

__all__ = [
    "AnalysisSession",
    "SessionStats",
    "EXECUTORS",
    "model_fingerprint",
    "run_request",
    "run_serialized_request",
    "validate_executor",
]

#: Batch executor names accepted by :meth:`AnalysisSession.run_batch`.
EXECUTORS = ("sequential", "process")


def validate_executor(executor: str, max_workers: Optional[int]) -> None:
    """Refuse an unknown executor name or a non-positive pool size.

    ``max_workers`` of 0 is refused rather than read as unset, which is
    what ``max_workers or default`` would silently do.
    """
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; expected one of "
            f"{', '.join(EXECUTORS)}"
        )
    if max_workers is not None and (
        not isinstance(max_workers, int) or max_workers < 1
    ):
        raise ValueError(
            f"max_workers must be a positive integer, got {max_workers!r}"
        )


def model_fingerprint(model: Model) -> str:
    """A stable content hash of a decorated attack tree.

    Computed over the canonical JSON serialization (sorted keys), so it is
    insensitive to dict ordering and identical across processes — suitable
    as a cache-sharding key.
    """
    import json

    payload = json.dumps(serialization.to_dict(model), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_request(
    model: Model,
    request: AnalysisRequest,
    registry: Optional[BackendRegistry] = None,
) -> AnalysisResult:
    """Execute one request against a model, without any session caching.

    This is the engine's stateless core: validate, resolve the backend via
    the registry, run it, and wrap the output with metadata.
    :class:`AnalysisSession` funnels through here too.
    """
    request.validate()
    registry = registry if registry is not None else shared_registry()
    backend = registry.resolve(request.problem, model, backend=request.backend)
    started = time.perf_counter()
    with trace_span(
        "solve",
        attrs={"backend": backend.name, "problem": request.problem.value},
    ):
        output = backend.solve(model, request)
    elapsed = time.perf_counter() - started
    obs_families.solve_seconds().observe(
        elapsed, backend=backend.name, problem=request.problem.value
    )
    return AnalysisResult(
        request=request,
        backend=backend.name,
        shape=model_shape(model).value,
        setting=problem_setting(request.problem).value,
        front=output.front,
        value=output.value,
        witness=output.witness,
        wall_time_seconds=elapsed,
        cache_hit=False,
        node_count=len(model.tree),
        bas_count=len(model.tree.basic_attack_steps),
        extras=output.extras,
    )


def run_serialized_request(
    model_payload: Dict[str, Any],
    request_payload: Dict[str, Any],
    store: Optional["ResultStore"] = None,
) -> Dict[str, Any]:
    """Execute one JSON-encoded request against a JSON-encoded model.

    The stateless, wire-format twin of :func:`run_request`: everything in
    and out is a plain JSON-compatible dict, so callers can ship work across
    process or network boundaries without pickling any domain object.
    Backends resolve against the calling process's shared registry.

    With ``store`` set, execution is *idempotent* across retries: the
    request is read through (and written back to) the shared result store,
    so a task re-executed after a worker crash is answered with the result
    the first execution already persisted instead of being recomputed —
    the hook :mod:`repro.distributed` workers rely on.
    """
    model = serialization.from_dict(model_payload)
    request = AnalysisRequest.from_dict(request_payload)
    if store is not None:
        return AnalysisSession(model, store=store).run(request).to_dict()
    return run_request(model, request).to_dict()


# Per-worker-process state for the session's process executor: the model is
# deserialized once per worker (pool initializer) instead of once per task.
_WORKER_MODEL: Optional[Model] = None


def _process_initializer(model_payload: Dict[str, Any]) -> None:
    global _WORKER_MODEL
    _WORKER_MODEL = serialization.from_dict(model_payload)


def _process_worker(request_payload: Dict[str, Any]) -> Dict[str, Any]:
    if _WORKER_MODEL is None:  # pragma: no cover - defensive
        raise RuntimeError("process worker used without its model initializer")
    request = AnalysisRequest.from_dict(request_payload)
    return run_request(_WORKER_MODEL, request).to_dict()


@dataclass
class SessionStats:
    """Cache counters of one session.

    ``store_hits`` counts the subset of ``hits`` that were answered by the
    attached shared :class:`~repro.engine.store.ResultStore` rather than
    this session's own in-memory dict.
    """

    hits: int = 0
    misses: int = 0
    store_hits: int = 0

    @property
    def requests(self) -> int:
        """Total requests served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests answered from cache (0 when none served)."""
        return self.hits / self.requests if self.requests else 0.0


class AnalysisSession:
    """Uniform, cached, batchable access to every analysis of one model.

    Parameters
    ----------
    model:
        The decorated attack tree (cd-AT or cdp-AT) to analyze.
    registry:
        Backend registry to resolve requests against; defaults to the
        process-wide registry with all built-in backends.
    store:
        Optional shared :class:`~repro.engine.store.ResultStore` backing
        the in-memory cache (read-through/write-through).  A result not in
        this session's dict is looked up in the store before being
        computed, and every computed result is written back — so separate
        sessions, repeated processes and pool workers share work through
        one store file.  A store that fails mid-session (disk full, lock
        timeout) degrades the session to cache-off instead of aborting
        analyses.

    Examples
    --------
    >>> from repro import AnalysisRequest, AnalysisSession, Problem
    >>> from repro.attacktree import catalog
    >>> session = AnalysisSession(catalog.factory())
    >>> result = session.run(AnalysisRequest(Problem.CDPF))
    >>> result.front.values()
    [(0.0, 0.0), (1.0, 200.0), (3.0, 210.0), (5.0, 310.0)]
    >>> session.run(AnalysisRequest(Problem.CDPF)).cache_hit
    True
    """

    def __init__(
        self,
        model: Model,
        registry: Optional[BackendRegistry] = None,
        store: Optional["ResultStore"] = None,
    ) -> None:
        self.model = model
        self.registry = registry if registry is not None else shared_registry()
        self.store = store
        # A store that breaks mid-session (disk full, lock timeout, file
        # corrupted underneath us) must not abort analyses that would have
        # succeeded without any cache: the first StoreError degrades the
        # session to cache-off and the store is not touched again.
        self._store_broken = False
        # Computed lazily: the fingerprint only matters once a result is
        # cached, and callers construct sessions they may never query.
        self._fingerprint: Optional[str] = None
        self._cache: Dict[Tuple, AnalysisResult] = {}
        self._lock = threading.Lock()
        self.stats = SessionStats()

    # ------------------------------------------------------------------ #
    # model facts
    # ------------------------------------------------------------------ #
    @property
    def fingerprint(self) -> str:
        """The model's content hash (cache key prefix), computed on demand."""
        if self._fingerprint is None:
            self._fingerprint = model_fingerprint(self.model)
        return self._fingerprint

    @property
    def is_treelike(self) -> bool:
        """Whether the underlying AT is treelike."""
        return self.model.tree.is_treelike

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _key(self, request: AnalysisRequest) -> Tuple:
        return (self.fingerprint,) + request.cache_key()

    def run(self, request: AnalysisRequest) -> AnalysisResult:
        """Execute one request, serving repeats from the session cache.

        Cache hits return a result flagged ``cache_hit=True`` whose
        ``wall_time_seconds`` is the original computation's time.
        """
        key = self._key(request)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self.stats.hits += 1
        if cached is not None:
            obs_families.session_cache_total().inc(result="hit")
            # The extras deep-copy in as_cache_hit is O(result size); do it
            # outside the lock so threads sharing a session don't serialize
            # on hits (the stored entry is never mutated, so this is safe).
            return cached.as_cache_hit()
        stored = self._from_store(request)
        if stored is not None:
            return stored.as_cache_hit()
        result = run_request(self.model, request, self.registry)
        with self._lock:
            # Store a detached copy: extras is mutable, and the caller gets
            # the original object back — their mutations must not leak into
            # what future cache hits observe.
            self._cache.setdefault(
                key, replace(result, extras=copy.deepcopy(result.extras))
            )
            self.stats.misses += 1
        obs_families.session_cache_total().inc(result="miss")
        self._store_put(request, result)
        return result

    def _store_put(self, request: AnalysisRequest, result: AnalysisResult) -> None:
        """Write-through to the shared store; failures degrade, never abort."""
        if self.store is None or self._store_broken:
            return
        from .store import StoreError

        try:
            self.store.put(self.fingerprint, request, result)
        except StoreError:
            self._store_broken = True

    def _from_store(
        self, request: AnalysisRequest, count_hit: bool = True
    ) -> Optional[AnalysisResult]:
        """Read-through: fetch a miss from the shared store, if one is set.

        A store answer is installed in the in-memory dict (normalized to
        ``cache_hit=False``, like a freshly computed entry) and recorded in
        ``stats.store_hits``; returns ``None`` on a genuine miss.  With
        ``count_hit=False`` the overall hit counter is left to the caller
        (the process batch path accounts hits and misses for the whole
        batch at once).
        """
        if self.store is None or self._store_broken:
            return None
        from .store import StoreError

        try:
            stored = self.store.get(self.fingerprint, request)
        except StoreError:
            self._store_broken = True
            return None
        if stored is None:
            return None
        detached = replace(
            stored, cache_hit=False, extras=copy.deepcopy(stored.extras)
        )
        with self._lock:
            self._cache.setdefault(self._key(request), detached)
            if count_hit:
                self.stats.hits += 1
            self.stats.store_hits += 1
        obs_families.session_cache_total().inc(result="store_hit")
        return detached

    def run_batch(
        self,
        requests: Sequence[AnalysisRequest],
        max_workers: Optional[int] = None,
        executor: str = "sequential",
    ) -> List[AnalysisResult]:
        """Execute many requests, preserving input order.

        Parameters
        ----------
        requests:
            The analyses to run.
        max_workers:
            Pool size for the process executor (default: number of cache
            misses capped at 8).
        executor:
            ``"sequential"`` (the default) or ``"process"``.  The process
            executor serves cache hits in the parent, computes duplicate
            misses once, and requires the default backend registry (worker
            processes resolve backends against their own shared registry,
            where custom backends would not exist).
        """
        requests = list(requests)
        validate_executor(executor, max_workers)
        if executor == "process":
            return self._run_batch_process(requests, max_workers)
        return [self.run(request) for request in requests]

    def _run_batch_process(
        self, requests: List[AnalysisRequest], max_workers: Optional[int]
    ) -> List[AnalysisResult]:
        """Process-pool batch: hits from cache, misses computed out-of-process."""
        if self.registry is not shared_registry():
            raise ValueError(
                "the process executor requires the default backend registry "
                "(worker processes cannot see a custom registry); use "
                "executor='sequential' for custom backends"
            )
        # Validate and resolve everything up front, in the parent, so a
        # malformed request fails with a clean error before any process
        # spawns or any earlier analysis runs.
        for request in requests:
            request.validate()
            self.registry.resolve(request.problem, self.model, backend=request.backend)
        # Partition into cache hits (served here) and misses (dispatched);
        # identical misses share one computation.
        outputs: List[Optional[AnalysisResult]] = [None] * len(requests)
        pending: Dict[Tuple, "Future[Dict[str, Any]]"] = {}
        pending_indices: Dict[Tuple, List[int]] = {}
        store_answers = 0
        with self._lock:
            cached = {
                index: self._cache.get(self._key(request))
                for index, request in enumerate(requests)
            }
        if self.store is not None:
            # Read-through before spawning anything: results another process
            # (or a previous run) already computed are served here, in the
            # parent.  Each store answer is installed in the in-memory dict,
            # so duplicates consult the store only once; hit/miss totals are
            # handled by the unified accounting below (count_hit=False —
            # only the store_hits breakdown is recorded here).
            for index, request in enumerate(requests):
                if cached[index] is not None:
                    continue
                with self._lock:
                    entry = self._cache.get(self._key(request))
                if entry is None:
                    entry = self._from_store(request, count_hit=False)
                    if entry is not None:
                        store_answers += 1
                cached[index] = entry
        misses = [
            (index, request)
            for index, request in enumerate(requests)
            if cached[index] is None
        ]
        for index, entry in cached.items():
            if entry is not None:
                outputs[index] = entry.as_cache_hit()
        unique_misses = len({self._key(request) for _, request in misses})
        with self._lock:
            self.stats.hits += len(requests) - unique_misses
            self.stats.misses += unique_misses
        # Counter events stay disjoint: store answers already counted
        # themselves as result="store_hit" inside _from_store.
        hit_events = len(requests) - unique_misses - store_answers
        if hit_events > 0:
            obs_families.session_cache_total().inc(hit_events, result="hit")
        if unique_misses > 0:
            obs_families.session_cache_total().inc(unique_misses, result="miss")
        if misses:
            # Loads multiprocessing, which only this path runs.
            from concurrent.futures import ProcessPoolExecutor

            model_payload = serialization.to_dict(self.model)
            workers = max_workers or min(len(misses), 8)
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_process_initializer,
                initargs=(model_payload,),
            ) as pool:
                for index, request in misses:
                    key = self._key(request)
                    if key not in pending:
                        pending[key] = pool.submit(
                            _process_worker, request.to_dict()
                        )
                        pending_indices[key] = []
                    pending_indices[key].append(index)
                for key, future in pending.items():
                    result = AnalysisResult.from_dict(future.result())
                    with self._lock:
                        self._cache.setdefault(
                            key, replace(result, extras=copy.deepcopy(result.extras))
                        )
                    # Populate the shared store with what the workers
                    # computed, so other processes (and the next run) see it.
                    self._store_put(result.request, result)
                    first, *rest = pending_indices[key]
                    outputs[first] = result
                    for index in rest:
                        # Duplicates within one batch were computed once;
                        # report them as the cache hits they effectively are.
                        outputs[index] = result.as_cache_hit()
        assert all(output is not None for output in outputs)
        return outputs  # type: ignore[return-value]

    def resolve(self, problem: Problem, backend: Optional[str] = None):
        """The backend a request for ``problem`` would run on this model."""
        return self.registry.resolve(problem, self.model, backend=backend)

    # ------------------------------------------------------------------ #
    # cache management
    # ------------------------------------------------------------------ #
    def clear_cache(self) -> int:
        """Drop every cached result; returns how many were dropped."""
        with self._lock:
            dropped = len(self._cache)
            self._cache.clear()
        return dropped

    def cached_results(self) -> List[AnalysisResult]:
        """A snapshot of the currently cached results.

        Detached copies: mutating a returned result's ``extras`` must not
        corrupt what future cache hits observe.
        """
        with self._lock:
            return [
                replace(result, extras=copy.deepcopy(result.extras))
                for result in self._cache.values()
            ]

    # ------------------------------------------------------------------ #
    # convenience constructors for the six problems
    # ------------------------------------------------------------------ #
    def pareto_front(self, backend: Optional[str] = None) -> AnalysisResult:
        """Problem CDPF."""
        return self.run(AnalysisRequest(Problem.CDPF, backend=backend))

    def max_damage(self, budget: float, backend: Optional[str] = None) -> AnalysisResult:
        """Problem DgC."""
        return self.run(AnalysisRequest(Problem.DGC, budget=budget, backend=backend))

    def min_cost(self, threshold: float, backend: Optional[str] = None) -> AnalysisResult:
        """Problem CgD."""
        return self.run(
            AnalysisRequest(Problem.CGD, threshold=threshold, backend=backend)
        )

    def expected_pareto_front(self, backend: Optional[str] = None) -> AnalysisResult:
        """Problem CEDPF."""
        return self.run(AnalysisRequest(Problem.CEDPF, backend=backend))

    def max_expected_damage(
        self, budget: float, backend: Optional[str] = None
    ) -> AnalysisResult:
        """Problem EDgC."""
        return self.run(AnalysisRequest(Problem.EDGC, budget=budget, backend=backend))

    def min_cost_expected(
        self, threshold: float, backend: Optional[str] = None
    ) -> AnalysisResult:
        """Problem CgED."""
        return self.run(
            AnalysisRequest(Problem.CGED, threshold=threshold, backend=backend)
        )
