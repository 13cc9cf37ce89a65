"""The solver-backend abstraction of the analysis engine.

A *backend* is one algorithm family (bottom-up propagation, BILP,
enumeration) wrapped behind a uniform interface.  Each backend
declares the :class:`Capability` cells it covers — a cell is a
``(problem, shape, setting)`` triple mirroring Table I of the paper, where
*shape* distinguishes treelike from DAG-like ATs and *setting* deterministic
from probabilistic analyses.  The registry (:mod:`repro.engine.registry`)
resolves a request to a backend purely from this declared data; no caller
ever branches on an algorithm enum again.

Backends receive the model plus the :class:`~repro.engine.requests
.AnalysisRequest` and return a :class:`BackendOutput` carrying the front or
value/witness pair, plus any backend-specific extras (e.g. the shared-node
count and frontier width of a labelled bottom-up fold on a DAG).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Optional, Protocol, Union, runtime_checkable

from ..attacktree.attributes import CostDamageAT, CostDamageProbAT
from ..core.problems import Problem
from ..pareto.front import ParetoFront

__all__ = [
    "Model",
    "Shape",
    "Setting",
    "Capability",
    "BackendOutput",
    "SolverBackend",
    "model_shape",
    "problem_setting",
    "require_probabilistic",
    "as_deterministic",
]

Model = Union[CostDamageAT, CostDamageProbAT]


class Shape(enum.Enum):
    """Structural shape of the underlying attack tree (Table I columns)."""

    TREE = "tree"
    DAG = "dag"


class Setting(enum.Enum):
    """Deterministic vs probabilistic analysis (Table I rows)."""

    DETERMINISTIC = "deterministic"
    PROBABILISTIC = "probabilistic"


@dataclass(frozen=True)
class Capability:
    """One cell of the capability matrix a backend covers.

    Attributes
    ----------
    problem:
        The cost-damage problem the backend can answer.
    shape:
        The tree shape the backend handles for this problem.
    setting:
        The analysis setting of the problem (redundant with
        ``problem.is_probabilistic`` for the paper's six problems, but kept
        explicit so future mixed-setting backends can be described).
    """

    problem: Problem
    shape: Shape
    setting: Setting


def problem_setting(problem: Problem) -> Setting:
    """The setting a problem belongs to (Table I row)."""
    return Setting.PROBABILISTIC if problem.is_probabilistic else Setting.DETERMINISTIC


def model_shape(model: Model) -> Shape:
    """The shape of a model (Table I column)."""
    return Shape.TREE if model.tree.is_treelike else Shape.DAG


def require_probabilistic(model: Model, problem: Problem) -> CostDamageProbAT:
    """Fail with the library's canonical error when a cdp-AT is required."""
    if not isinstance(model, CostDamageProbAT):
        raise TypeError(
            f"problem {problem.value} needs a cdp-AT (with success probabilities); "
            "got a deterministic cd-AT"
        )
    return model


def as_deterministic(model: Model) -> CostDamageAT:
    """Project a model onto its deterministic part (drop probabilities)."""
    if isinstance(model, CostDamageProbAT):
        return model.deterministic()
    return model


@dataclass(frozen=True)
class BackendOutput:
    """What a backend produces: a front or a value/witness pair, plus extras."""

    front: Optional[ParetoFront] = None
    value: Optional[float] = None
    witness: Optional[FrozenSet[str]] = None
    extras: Dict[str, Any] = field(default_factory=dict)


@runtime_checkable
class SolverBackend(Protocol):
    """The interface every analysis backend implements.

    Attributes
    ----------
    name:
        Stable identifier used in requests, results and error messages.
    priority:
        Tie-breaker among backends covering the same cell; higher
        wins.  The defaults encode Table I's preferences (bottom-up over
        BILP over enumeration).
    capabilities:
        The cells this backend covers.
    """

    name: str
    priority: int
    capabilities: FrozenSet[Capability]

    def solve(self, model: Model, request: "AnalysisRequest") -> BackendOutput:
        """Answer ``request`` on ``model``; only called for covered cells."""
        ...

    def covers(self, problem: Problem, shape: Shape, setting: Setting) -> bool:
        """Whether this backend covers the given cell."""
        ...

    def unsupported_reason(
        self, problem: Problem, shape: Shape, setting: Setting
    ) -> Optional[str]:
        """A backend-specific explanation for an uncovered cell, if any."""
        ...


class BaseBackend:
    """Convenience base class implementing the protocol's bookkeeping.

    Subclasses populate :attr:`handlers` — a plain mapping from
    :class:`Problem` to a callable ``(model, request) -> BackendOutput`` —
    so that per-problem dispatch is a data lookup, not an if/elif chain.
    """

    name: str = "base"
    priority: int = 0
    capabilities: FrozenSet[Capability] = frozenset()

    def covers(self, problem: Problem, shape: Shape, setting: Setting) -> bool:
        return Capability(problem, shape, setting) in self.capabilities

    def unsupported_reason(
        self, problem: Problem, shape: Shape, setting: Setting
    ) -> Optional[str]:
        return None

    def cell_label(self, shape: Shape, setting: Setting) -> str:
        """Human-readable Table I entry for a cell this backend resolves."""
        return self.name

    def declines(self, model: Model, problem: Problem) -> Optional[str]:
        """Why automatic resolution should pass over this backend for
        ``problem`` on ``model`` (e.g. another backend is faster there, or
        the model is too large to finish), or ``None``.

        Only consulted when no backend is named; a request naming this
        backend still runs it.
        """
        return None

    def solve(self, model: Model, request: "AnalysisRequest") -> BackendOutput:
        try:
            handler = self.handlers[request.problem]
        except (AttributeError, KeyError):
            raise ValueError(
                f"backend {self.name!r} has no handler for problem "
                f"{request.problem.value!r}"
            ) from None
        return handler(model, request)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} (priority={self.priority})>"


def cells(problem_iterable, shapes, setting: Setting) -> FrozenSet[Capability]:
    """Build the capability set for a cartesian product of cells."""
    return frozenset(
        Capability(problem, shape, setting)
        for problem in problem_iterable
        for shape in shapes
    )
