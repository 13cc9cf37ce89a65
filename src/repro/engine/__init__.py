"""The pluggable analysis engine.

This package is the uniform query surface of the library: solver
implementations are *backends* registered in a capability-aware
:class:`~repro.engine.registry.BackendRegistry`, requests and results are
typed, JSON-round-trippable values, and :class:`AnalysisSession` adds
per-model caching and (optionally parallel) batch execution.

Layers
------
``backend``
    The :class:`SolverBackend` protocol and the ``(problem, shape,
    setting)`` capability cells (Table I of the paper, made data).
``backends``
    The built-in exact backends: bottom-up (dominator labels on DAGs),
    BILP and enumerative.
``registry``
    Registration and data-driven resolution.
``requests``
    :class:`AnalysisRequest` / :class:`AnalysisResult` with JSON round-trip.
``session``
    :class:`AnalysisSession`: fingerprint-keyed caching and batches.
``store``
    The shared persistent result store (:class:`SqliteStore`) that backs
    session caches across processes.

:class:`AnalysisSession` and :func:`run_request` are the only ways to ask
the six problems; a backend is named by its string name.
"""

from .backend import (
    BackendOutput,
    BaseBackend,
    Capability,
    Model,
    Setting,
    Shape,
    SolverBackend,
    model_shape,
    problem_setting,
)
from .registry import (
    BackendRegistry,
    BackendRegistryError,
    CapabilityError,
    UnknownBackendError,
    default_registry,
    shared_registry,
)
from .requests import AnalysisRequest, AnalysisResult
from .session import (
    EXECUTORS,
    AnalysisSession,
    SessionStats,
    model_fingerprint,
    run_request,
    run_serialized_request,
)
from .store import (
    STORE_SCHEMA_VERSION,
    NamespacedStore,
    ResultStore,
    SqliteStore,
    StoreError,
    StoreStats,
    open_store,
)

#: Concrete backend classes are re-exported lazily (PEP 562): importing the
#: engine package must not pull in the kernel modules — they load on first
#: registry use (default_registry) or first attribute access.
_LAZY_BACKEND_EXPORTS = frozenset({
    "BilpBackend",
    "BottomUpBackend",
    "EnumerativeBackend",
    "standard_backends",
})


def __getattr__(name):
    if name in _LAZY_BACKEND_EXPORTS:
        from . import backends

        return getattr(backends, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AnalysisRequest",
    "AnalysisResult",
    "AnalysisSession",
    "BackendOutput",
    "BackendRegistry",
    "BackendRegistryError",
    "BaseBackend",
    "BilpBackend",
    "BottomUpBackend",
    "Capability",
    "CapabilityError",
    "EXECUTORS",
    "EnumerativeBackend",
    "NamespacedStore",
    "Model",
    "ResultStore",
    "STORE_SCHEMA_VERSION",
    "SessionStats",
    "Setting",
    "Shape",
    "SolverBackend",
    "SqliteStore",
    "StoreError",
    "StoreStats",
    "UnknownBackendError",
    "default_registry",
    "model_fingerprint",
    "open_store",
    "model_shape",
    "problem_setting",
    "run_request",
    "run_serialized_request",
    "shared_registry",
    "standard_backends",
]
