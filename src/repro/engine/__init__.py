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

from .._lazy import lazy_exports

_EXPORTS = {
    "AnalysisRequest": "requests",
    "AnalysisResult": "requests",
    "AnalysisSession": "session",
    "BackendOutput": "backend",
    "BackendRegistry": "registry",
    "BackendRegistryError": "registry",
    "BaseBackend": "backend",
    "BilpBackend": "backends",
    "BottomUpBackend": "backends",
    "Capability": "backend",
    "CapabilityError": "registry",
    "EXECUTORS": "session",
    "EnumerativeBackend": "backends",
    "NamespacedStore": "store",
    "Model": "backend",
    "ResultStore": "store",
    "STORE_SCHEMA_VERSION": "store",
    "SessionStats": "session",
    "Setting": "backend",
    "Shape": "backend",
    "SolverBackend": "backend",
    "SqliteStore": "store",
    "StoreError": "store",
    "StoreStats": "store",
    "UnknownBackendError": "registry",
    "default_registry": "registry",
    "model_fingerprint": "session",
    "open_store": "store",
    "model_shape": "backend",
    "problem_setting": "backend",
    "run_request": "session",
    "run_serialized_request": "session",
    "shared_registry": "registry",
    "standard_backends": "backends",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
