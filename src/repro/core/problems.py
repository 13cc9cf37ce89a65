"""Problem definitions and the legacy uniform ``solve`` entry point.

The paper states six problems (Sections IV and VIII).  This module gives
each a first-class identifier and keeps :func:`solve` as a thin
backwards-compatible shim over the pluggable analysis engine
(:mod:`repro.engine`): algorithm selection is no longer hardwired here but
resolved by the engine's capability registry, which encodes Table I of the
paper as data.  New code should prefer
:class:`repro.engine.AnalysisSession`, which adds caching, batching and
structured result metadata.

==========  ==========================================  ===================
problem     meaning                                      parameter
==========  ==========================================  ===================
``CDPF``    cost-damage Pareto front                     —
``DGC``     max damage given a cost budget               ``budget``
``CGD``     min cost given a damage threshold            ``threshold``
``CEDPF``   cost-expected-damage Pareto front            —
``EDGC``    max expected damage given a cost budget      ``budget``
``CGED``    min cost given an expected-damage threshold  ``threshold``
==========  ==========================================  ===================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Optional, Union

from ..attacktree.attributes import CostDamageAT, CostDamageProbAT
from ..pareto.front import ParetoFront

__all__ = ["Problem", "Method", "SolveResult", "solve", "capability_matrix"]


class Problem(enum.Enum):
    """The six cost-damage problems of the paper."""

    CDPF = "cdpf"
    DGC = "dgc"
    CGD = "cgd"
    CEDPF = "cedpf"
    EDGC = "edgc"
    CGED = "cged"

    @property
    def is_probabilistic(self) -> bool:
        """``True`` for the expected-damage problems."""
        return self in {Problem.CEDPF, Problem.EDGC, Problem.CGED}

    @property
    def is_front(self) -> bool:
        """``True`` for the Pareto-front problems."""
        return self in {Problem.CDPF, Problem.CEDPF}


class Method(enum.Enum):
    """Legacy algorithm selector, kept for backwards compatibility.

    ``AUTO`` lets the engine registry resolve following Table I; the other
    values force the engine backend of the same name.  The engine API
    (:class:`repro.engine.AnalysisRequest`) selects backends by *name*
    instead.
    """

    AUTO = "auto"
    BOTTOM_UP = "bottom-up"
    CONDITIONING = "conditioning"
    BILP = "bilp"
    ENUMERATIVE = "enumerative"


#: Method ↔ engine-backend name correspondence used by the shim.
_METHOD_TO_BACKEND = {
    Method.BOTTOM_UP: "bottom-up",
    Method.CONDITIONING: "conditioning",
    Method.BILP: "bilp",
    Method.ENUMERATIVE: "enumerative",
}
_BACKEND_TO_METHOD = {name: method for method, name in _METHOD_TO_BACKEND.items()}


@dataclass(frozen=True)
class SolveResult:
    """Result of :func:`solve`.

    Exactly one of :attr:`front` or :attr:`value` is populated, depending on
    whether the problem is a Pareto-front problem or a single-objective one.
    """

    problem: Problem
    method: Method
    front: Optional[ParetoFront] = None
    value: Optional[float] = None
    witness: Optional[FrozenSet[str]] = None

    def __post_init__(self) -> None:
        if self.problem.is_front and self.front is None:
            raise ValueError(f"{self.problem} results must carry a Pareto front")


Model = Union[CostDamageAT, CostDamageProbAT]


def _to_solve_result(problem: Problem, result: "AnalysisResult") -> SolveResult:
    """Convert an engine :class:`~repro.engine.AnalysisResult` into the
    legacy :class:`SolveResult` shape (shared by :func:`solve` and the
    analyzer facade so the two shims cannot drift apart)."""
    return SolveResult(
        problem=problem,
        method=_BACKEND_TO_METHOD.get(result.backend, Method.AUTO),
        front=result.front,
        value=result.value,
        witness=result.witness,
    )


def solve(
    model: Model,
    problem: Problem,
    method: Method = Method.AUTO,
    budget: Optional[float] = None,
    threshold: Optional[float] = None,
) -> SolveResult:
    """Solve one of the six cost-damage problems (legacy entry point).

    This is a compatibility shim over :func:`repro.engine.run_request`; it
    keeps the original call signature and :class:`SolveResult` shape while
    the engine registry performs the algorithm selection.

    Parameters
    ----------
    model:
        A cd-AT (deterministic problems) or cdp-AT (either kind; the
        probability map is ignored by deterministic problems).
    problem:
        Which problem to solve.
    method:
        Force a specific algorithm, or ``AUTO`` to follow Table I.
    budget:
        Required for ``DGC``/``EDGC``.
    threshold:
        Required for ``CGD``/``CGED``.
    """
    # Imported lazily: the engine's backends import this module for the
    # Problem enum, so a module-level import would be circular.
    from ..engine.requests import AnalysisRequest
    from ..engine.session import run_request

    request = AnalysisRequest(
        problem=problem,
        budget=budget,
        threshold=threshold,
        backend=_METHOD_TO_BACKEND.get(method),
    )
    return _to_solve_result(problem, run_request(model, request))


def capability_matrix() -> dict:
    """Table I of the paper: which exact method covers which setting.

    Keys are ``(setting, shape)`` pairs; values name the algorithm (or mark
    the open problem).  The table is computed from the engine registry's
    declared backend capabilities — see
    :meth:`repro.engine.BackendRegistry.capability_report` — so it always
    reflects what resolution will actually do.
    """
    from ..engine.registry import shared_registry

    return shared_registry().capability_report()
