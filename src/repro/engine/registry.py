"""Capability-aware backend registry: data-driven Table I resolution.

The registry replaces the old ``if/elif`` ladder of
``repro.core.problems``: every backend declares which
``(problem, shape, setting)`` cells it covers, and
:meth:`BackendRegistry.resolve` picks the highest-priority backend
covering the requested cell, so automatic resolution reproduces the
paper's Table I:

==============  =====  ==========================================
setting         shape  resolved backend
==============  =====  ==========================================
deterministic   tree   ``bottom-up``  (Theorem 4)
deterministic   dag    ``bottom-up`` with dominator labels (frontier
                       width up to a per-problem cutoff), else
                       ``bilp`` (Theorem 6)
probabilistic   tree   ``bottom-up``  (Theorem 9)
probabilistic   dag    ``enumerative`` (the open problem's fallback,
                       up to its 16-BAS table limit)
==============  =====  ==========================================

A backend may *decline* a request it covers (:meth:`~repro.engine.backend
.BaseBackend.declines`) when its cost rule says another is faster for that
problem on that model — automatic resolution then falls through to the
next candidate — or that it would not finish at all, in which case the
request fails fast with a :class:`CapabilityError` unless it names the
backend.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.problems import Problem
from .backend import (
    Model,
    Setting,
    Shape,
    SolverBackend,
    model_shape,
    problem_setting,
    require_probabilistic,
)

__all__ = [
    "BackendRegistryError",
    "UnknownBackendError",
    "CapabilityError",
    "BackendRegistry",
    "cell_label",
    "default_registry",
]


class BackendRegistryError(ValueError):
    """Base class for registry failures."""


class UnknownBackendError(BackendRegistryError):
    """A request named a backend that is not registered."""


class CapabilityError(BackendRegistryError):
    """No (or no suitable) backend covers the requested cell."""


class BackendRegistry:
    """A mutable collection of solver backends with capability resolution."""

    def __init__(self) -> None:
        self._backends: Dict[str, SolverBackend] = {}

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(self, backend: SolverBackend, replace: bool = False) -> SolverBackend:
        """Add a backend under its :attr:`~SolverBackend.name`.

        Registering a second backend under an existing name is an error
        unless ``replace=True`` — silent shadowing hides configuration bugs.
        Returns the backend so registration can be used inline.
        """
        if backend.name in self._backends and not replace:
            raise BackendRegistryError(
                f"a backend named {backend.name!r} is already registered; "
                "pass replace=True to override it"
            )
        self._backends[backend.name] = backend
        return backend

    def unregister(self, name: str) -> None:
        """Remove a backend by name."""
        try:
            del self._backends[name]
        except KeyError:
            raise UnknownBackendError(self._unknown_message(name)) from None

    def names(self) -> List[str]:
        """The registered backend names, sorted."""
        return sorted(self._backends)

    def get(self, name: str) -> SolverBackend:
        """Look up a backend by name."""
        try:
            return self._backends[name]
        except KeyError:
            raise UnknownBackendError(self._unknown_message(name)) from None

    def __contains__(self, name: object) -> bool:
        return name in self._backends

    def __len__(self) -> int:
        return len(self._backends)

    def _unknown_message(self, name: str) -> str:
        return (
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(self.names()) or '(none)'}"
        )

    # ------------------------------------------------------------------ #
    # resolution
    # ------------------------------------------------------------------ #
    def candidates(
        self, problem: Problem, shape: Shape, setting: Setting
    ) -> List[SolverBackend]:
        """Backends covering a cell, best (highest priority) first."""
        found = [
            backend
            for backend in self._backends.values()
            if backend.covers(problem, shape, setting)
        ]
        return sorted(found, key=lambda b: (-b.priority, b.name))

    def resolve(
        self, problem: Problem, model: Model, backend: Optional[str] = None
    ) -> SolverBackend:
        """Pick the backend answering ``problem`` on ``model``.

        With ``backend=None`` this reproduces Table I: the highest-priority
        backend covering ``(problem, shape(model), setting(problem))``
        that does not decline the request (see ``BaseBackend.declines``).
        With a name, that backend is returned after checking it covers the
        cell (backends can veto with a domain-specific message, e.g. "CEDPF
        has no BILP formulation").
        """
        shape = model_shape(model)
        setting = problem_setting(problem)
        if setting is Setting.PROBABILISTIC:
            # Fail setting mismatches here, not deep inside a solver: callers
            # (e.g. the batch CLI's pre-flight) rely on resolution to reject
            # a probabilistic problem on a probability-less model.
            require_probabilistic(model, problem)
        if backend is not None:
            chosen = self.get(backend)
            if not chosen.covers(problem, shape, setting):
                reason = chosen.unsupported_reason(problem, shape, setting)
                if reason is None:
                    reason = (
                        f"backend {chosen.name!r} does not cover problem "
                        f"{problem.value!r} on {setting.value} {shape.value}-shaped "
                        "models"
                    )
                raise CapabilityError(reason)
            return chosen
        found = self.candidates(problem, shape, setting)
        if not found:
            raise CapabilityError(
                f"no backend covers problem {problem.value!r} on "
                f"{setting.value} {shape.value}-shaped models"
            )
        reasons = []
        for candidate in found:
            declines = getattr(candidate, "declines", None)
            reason = None if declines is None else declines(model, problem)
            if reason is None:
                return candidate
            reasons.append(f"{candidate.name}: {reason}")
        raise CapabilityError(
            f"every backend covering problem {problem.value!r} on "
            f"{setting.value} {shape.value}-shaped models declined this model: "
            + "; ".join(reasons)
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def capability_report(self) -> Dict[Tuple[str, str], str]:
        """Table I as resolved by this registry.

        Keys are ``(setting, shape)`` string pairs; values are the resolved
        backend's label for the cell.  With the default backends this
        reproduces the paper's table verbatim.
        """
        representative = {
            Setting.DETERMINISTIC: Problem.CDPF,
            Setting.PROBABILISTIC: Problem.CEDPF,
        }
        table: Dict[Tuple[str, str], str] = {}
        for setting, problem in representative.items():
            for shape in Shape:
                found = self.candidates(problem, shape, setting)
                if not found:
                    table[(setting.value, shape.value)] = "(uncovered)"
                    continue
                table[(setting.value, shape.value)] = cell_label(
                    found[0], shape, setting
                )
        return table

    def describe(self) -> str:
        """Multi-line overview of backends and their coverage (for the CLI)."""
        lines = []
        for name in self.names():
            backend = self._backends[name]
            problems = sorted({c.problem.value for c in backend.capabilities})
            shapes = sorted({c.shape.value for c in backend.capabilities})
            lines.append(
                f"{name:<12} priority={backend.priority:<4} "
                f"problems={','.join(problems)} shapes={','.join(shapes)}"
            )
        return "\n".join(lines)


def cell_label(backend: SolverBackend, shape: Shape, setting: Setting) -> str:
    """The Table I entry ``backend`` gives for a cell it resolves (its
    ``cell_label`` when it has one, else its name)."""
    label = getattr(backend, "cell_label", None)
    return label(shape, setting) if callable(label) else backend.name


def default_registry() -> BackendRegistry:
    """A fresh registry with every built-in backend registered.

    The import is deferred so that the kernel modules only load when the
    engine is actually used.
    """
    from .backends import standard_backends

    registry = BackendRegistry()
    for backend in standard_backends():
        registry.register(backend)
    return registry


_shared_registry: Optional[BackendRegistry] = None


def shared_registry() -> BackendRegistry:
    """The process-wide default registry (created on first use)."""
    global _shared_registry
    if _shared_registry is None:
        _shared_registry = default_registry()
    return _shared_registry
