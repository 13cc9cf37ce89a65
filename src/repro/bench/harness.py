"""The benchmark harness: expand scenario specs, execute, record.

The harness turns :class:`~repro.workloads.spec.ScenarioSpec` lists into
engine work — one :class:`~repro.engine.AnalysisRequest` per generated
workload case — executes them through :class:`~repro.engine.AnalysisSession`
on a sequential, thread-pool or **process-pool** executor, and records a
:class:`BenchRun` row per case (wall time, result size, cache counters,
resolved backend).

Every case is self-contained on the wire (model and request as JSON dicts),
so the process executor ships cases to workers without pickling any domain
object; the same serialized form is executed inline by the sequential and
thread executors, guaranteeing that executors differ only in *where* the
work runs.
"""

from __future__ import annotations

import gc
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..attacktree import serialization
from ..core.problems import Problem
from ..engine import AnalysisRequest, AnalysisSession
from ..engine.session import EXECUTORS
from ..engine.store import ResultStore, open_store
from ..workloads import ScenarioSpec, WorkloadCase, expand
from .measure import TimingSample

__all__ = [
    "BenchRun",
    "build_request",
    "case_payload",
    "execute_serialized_case",
    "execute_specs",
    "expand_specs",
    "validate_case_requests",
]


@dataclass(frozen=True)
class BenchRun:
    """One benchmark row: a workload case timed through the engine.

    ``wall_time_seconds`` is the mean over ``repeats`` runs (the session
    cache is cleared between repeats so every run really computes);
    ``cache_hits``/``cache_misses`` are the session's counters after all
    repeats.  Hits stay zero unless a shared result store was attached —
    then a case answered by the store records ``cache_hits >= 1`` with the
    store portion in ``store_hits``, and its ``wall_time_seconds`` is the
    original computation's time.
    """

    case_id: str
    family: str
    shape: str
    setting: str
    size: int
    problem: str
    backend: str
    model_shape: str
    nodes: int
    bas: int
    repeats: int
    wall_time_seconds: float
    std_seconds: float
    result_points: int
    value: Optional[float]
    cache_hits: int
    cache_misses: int
    #: How many of the hits were served by a shared result store (zero
    #: unless the harness ran with a store path).
    store_hits: int = 0
    #: Peak traced memory over the case's repeats, in KiB — only measured
    #: when the harness ran with ``trace_memory=True`` (``None`` otherwise).
    peak_kb: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-compatible representation (one artifact ``runs`` entry)."""
        payload: Dict[str, Any] = {
            "case_id": self.case_id,
            "family": self.family,
            "shape": self.shape,
            "setting": self.setting,
            "size": self.size,
            "problem": self.problem,
            "backend": self.backend,
            "model_shape": self.model_shape,
            "nodes": self.nodes,
            "bas": self.bas,
            "repeats": self.repeats,
            "wall_time_seconds": self.wall_time_seconds,
            "std_seconds": self.std_seconds,
            "result_points": self.result_points,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }
        if self.value is not None:
            payload["value"] = self.value
        if self.store_hits:
            payload["store_hits"] = self.store_hits
        if self.peak_kb is not None:
            payload["peak_kb"] = self.peak_kb
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchRun":
        """Rebuild a run row from :meth:`to_dict` output."""
        return cls(
            case_id=data["case_id"],
            family=data["family"],
            shape=data["shape"],
            setting=data["setting"],
            # Only the fields validate_artifact requires may be read bare;
            # everything else defaults so externally produced artifacts that
            # pass validation also load.
            size=data.get("size", 0),
            problem=data["problem"],
            backend=data["backend"],
            model_shape=data.get("model_shape", ""),
            nodes=data.get("nodes", 0),
            bas=data.get("bas", 0),
            repeats=data.get("repeats", 1),
            wall_time_seconds=data["wall_time_seconds"],
            std_seconds=data.get("std_seconds", 0.0),
            result_points=data.get("result_points", 0),
            value=data.get("value"),
            cache_hits=data.get("cache_hits", 0),
            cache_misses=data.get("cache_misses", 0),
            store_hits=data.get("store_hits", 0),
            peak_kb=data.get("peak_kb"),
        )


def build_request(spec: ScenarioSpec) -> AnalysisRequest:
    """The engine request a spec benchmarks on each of its cases.

    The problem defaults to the setting's Pareto front (CDPF / CEDPF); the
    single-objective problems take their scalar parameter from the spec's
    ``budget`` / ``threshold`` params.
    """
    return AnalysisRequest(
        Problem(spec.default_problem()),
        budget=spec.param("budget"),
        threshold=spec.param("threshold"),
        backend=spec.backend,
    )


def expand_specs(
    specs: Sequence[ScenarioSpec],
) -> List[Tuple[ScenarioSpec, WorkloadCase]]:
    """Expand every spec, keeping the originating spec next to each case."""
    items: List[Tuple[ScenarioSpec, WorkloadCase]] = []
    for spec in specs:
        for case in expand(spec):
            items.append((spec, case))
    return items


def case_payload(
    spec: ScenarioSpec,
    case: WorkloadCase,
    repeats: int,
    trace_memory: bool = False,
) -> Dict[str, Any]:
    """Everything one worker needs, as plain JSON-compatible values.

    This is the wire format of one benchmark case: process-pool workers,
    and the distributed workers of :mod:`repro.distributed`, receive
    exactly this dict and return a :meth:`BenchRun.to_dict` row.
    """
    payload = {
        "identity": {
            "case_id": case.case_id,
            "family": case.family,
            "shape": case.shape,
            "setting": case.setting,
            "size": case.size,
        },
        "model": serialization.to_dict(case.model),
        "request": build_request(spec).to_dict(),
        "repeats": repeats,
    }
    if trace_memory:
        payload["trace_memory"] = True
    return payload


def validate_case_requests(
    items: Sequence[Tuple[ScenarioSpec, WorkloadCase]]
) -> None:
    """Validate every case's request and backend resolution up front.

    A bad backend name or missing budget in the last spec must fail before
    any work runs (or is submitted to a queue), not after minutes of
    benchmarking on the Nth worker.
    """
    for spec, case in items:
        request = build_request(spec)
        request.validate()
        session = AnalysisSession(case.model)
        session.resolve(request.problem, backend=request.backend)


# The shared result store of a process-pool worker: opened once per worker
# by the pool initializer (one connection per process, not one per case)
# and closed implicitly at worker exit.
_WORKER_STORE: Optional[ResultStore] = None


def _store_initializer(store_path: Optional[str]) -> None:
    global _WORKER_STORE
    _WORKER_STORE = open_store(store_path) if store_path else None


def execute_serialized_case(
    payload: Dict[str, Any], store: Optional[ResultStore] = None
) -> Dict[str, Any]:
    """Run one case (possibly in a worker process) and return its row.

    Module-level so :class:`~concurrent.futures.ProcessPoolExecutor` can
    pickle it.  The sequential and thread executors pass the run's shared
    store instance explicitly; pool workers fall back to the per-process
    one their initializer opened.  With ``trace_memory`` set on the payload
    the case's peak traced allocation is recorded as ``peak_kb``
    (:mod:`tracemalloc`; measured around the solver run, so a store-served
    case reports only its deserialization footprint).

    Garbage is collected before the case, outside its timed region, so a
    generation-2 collection triggered by earlier cases' allocations does
    not land inside this case's wall time.
    """
    if store is None:
        store = _WORKER_STORE
    gc.collect()
    trace_memory = bool(payload.get("trace_memory"))
    peak_kb: Optional[float] = None
    owns_tracer = False
    if trace_memory:
        import tracemalloc

        # Respect a tracer someone else (e.g. pytest) already started: only
        # reset the peak, and only stop what we ourselves started.
        owns_tracer = not tracemalloc.is_tracing()
        if owns_tracer:
            tracemalloc.start()
        else:
            tracemalloc.reset_peak()
    durations: List[float] = []
    result = None
    try:
        # Deserialization runs inside the guard too: a malformed payload
        # must not leak a running tracer into a long-lived worker process
        # (which would silently slow every subsequent task it executes).
        model = serialization.from_dict(payload["model"])
        request = AnalysisRequest.from_dict(payload["request"])
        repeats = payload["repeats"]
        session = AnalysisSession(model, store=store)
        for repeat in range(repeats):
            if repeat:
                session.clear_cache()
            result = session.run(request)
            durations.append(result.wall_time_seconds)
    finally:
        if trace_memory:
            import tracemalloc

            peak_kb = round(tracemalloc.get_traced_memory()[1] / 1024.0, 3)
            if owns_tracer:
                tracemalloc.stop()
    assert result is not None
    sample = TimingSample.from_durations(durations)
    if result.front is not None:
        result_points = len(result.front)
    else:
        result_points = 1 if result.value is not None else 0
    identity = payload["identity"]
    return BenchRun(
        case_id=identity["case_id"],
        family=identity["family"],
        shape=identity["shape"],
        setting=identity["setting"],
        size=identity["size"],
        problem=result.request.problem.value,
        backend=result.backend,
        model_shape=result.shape,
        nodes=result.node_count,
        bas=result.bas_count,
        repeats=repeats,
        wall_time_seconds=sample.mean_seconds,
        std_seconds=sample.std_seconds,
        result_points=result_points,
        value=result.value,
        cache_hits=session.stats.hits,
        cache_misses=session.stats.misses,
        store_hits=session.stats.store_hits,
        peak_kb=peak_kb,
    ).to_dict()


def execute_specs(
    specs: Sequence[ScenarioSpec],
    executor: str = "sequential",
    max_workers: Optional[int] = None,
    repeats: int = 1,
    store_path: Optional[str] = None,
    trace_memory: bool = False,
) -> List[BenchRun]:
    """Expand and execute scenario specs, preserving expansion order.

    Parameters
    ----------
    specs:
        The workloads to benchmark.
    executor:
        ``"sequential"``, ``"thread"`` or ``"process"`` — how cases are
        distributed.  Results are identical across executors (only timings
        differ); the process pool gives true CPU parallelism for the
        solver hot path.
    max_workers:
        Pool size for the parallel executors (default: case count capped
        at 8).
    repeats:
        Timing repetitions per case (mean/std are recorded).
    store_path:
        Optional shared result store: a sqlite path
        (:class:`repro.engine.SqliteStore`) or an ``atcd serve`` broker
        URL (``http://host:port``).  Every case's session reads
        through and writes back to it, so repeated runs — and concurrent
        pool workers — share results instead of recomputing.  A case
        served from the store reports the *original* computation's wall
        time (so warm artifacts stay comparable against cold ones) and a
        nonzero ``cache_hits``/``store_hits``.  With ``repeats > 1`` only
        the in-memory cache is cleared between repeats; later repeats may
        be answered by the store, making repeats pointless for timing —
        prefer ``repeats=1`` when benchmarking against a store.
    trace_memory:
        Record each case's peak traced allocation (:mod:`tracemalloc`) as
        the optional ``peak_kb`` row field.  Tracing slows the interpreter,
        so wall times from a traced run are not comparable to untraced
        ones.
    """
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; expected one of {', '.join(EXECUTORS)}"
        )
    if not isinstance(repeats, int) or repeats < 1:
        raise ValueError(f"repeats must be a positive integer, got {repeats!r}")
    if max_workers is not None and (
        not isinstance(max_workers, int) or max_workers < 1
    ):
        raise ValueError(
            f"max_workers must be a positive integer, got {max_workers!r}"
        )
    # Open the store once, up front: a corrupt or stale-schema file must
    # fail before any work runs, not from inside the Nth pool worker.  The
    # same connection then serves every sequential/thread case; process
    # workers open their own via the pool initializer.
    store = open_store(store_path) if store_path is not None else None
    try:
        items = expand_specs(specs)
        payloads = [
            case_payload(spec, case, repeats, trace_memory=trace_memory)
            for spec, case in items
        ]
        validate_case_requests(items)
        if executor == "sequential" or len(payloads) <= 1:
            rows = [
                execute_serialized_case(payload, store=store)
                for payload in payloads
            ]
        elif executor == "thread":
            workers = max_workers or min(len(payloads), 8)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                rows = list(
                    pool.map(
                        lambda payload: execute_serialized_case(payload, store=store),
                        payloads,
                    )
                )
        else:
            workers = max_workers or min(len(payloads), 8)
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_store_initializer,
                initargs=(store_path,),
            ) as pool:
                rows = list(pool.map(execute_serialized_case, payloads))
    finally:
        if store is not None:
            store.close()
    return [BenchRun.from_dict(row) for row in rows]
