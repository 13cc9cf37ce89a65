"""Built-in backends: the paper's three exact solvers plus conditioning.

Every backend is exact and auto-selectable (Table I):

* ``bottom-up`` — Pareto propagation for treelike ATs (Theorems 4 and 9);
* ``conditioning`` — the treelike kernel run once per subset of a
  deterministic DAG's shared BASs; auto-resolves while its work stays
  under a measured per-problem cutoff and declines the rest, which fall
  through to ``bilp``;
* ``bilp`` — bi-objective integer programming for deterministic DAGs
  (Theorem 6; no probabilistic formulation exists, see Section IX);
* ``enumerative`` — the exhaustive baseline; covers every cell, including
  the probabilistic-DAG open problem, at exponential cost.

Each backend maps problems to handlers through a plain dict, so adding a
problem or a backend never touches a dispatch ladder.
"""

from __future__ import annotations

from typing import List, Optional

from ..core import bilp, bottom_up, bottom_up_prob, conditioning, enumerative
from ..core.problems import Problem
from .backend import (
    BackendOutput,
    BaseBackend,
    Model,
    Setting,
    Shape,
    as_deterministic,
    cells,
    require_probabilistic,
)
from .requests import AnalysisRequest

__all__ = [
    "BottomUpBackend",
    "ConditioningBackend",
    "BilpBackend",
    "EnumerativeBackend",
    "standard_backends",
]

DETERMINISTIC_PROBLEMS = (Problem.CDPF, Problem.DGC, Problem.CGD)
PROBABILISTIC_PROBLEMS = (Problem.CEDPF, Problem.EDGC, Problem.CGED)
BOTH_SHAPES = (Shape.TREE, Shape.DAG)


class BottomUpBackend(BaseBackend):
    """Bottom-up Pareto propagation for treelike ATs (Theorems 4 and 9)."""

    name = "bottom-up"
    priority = 100
    capabilities = cells(
        DETERMINISTIC_PROBLEMS, (Shape.TREE,), Setting.DETERMINISTIC
    ) | cells(PROBABILISTIC_PROBLEMS, (Shape.TREE,), Setting.PROBABILISTIC)

    def __init__(self) -> None:
        self.handlers = {
            Problem.CDPF: self._cdpf,
            Problem.DGC: self._dgc,
            Problem.CGD: self._cgd,
            Problem.CEDPF: self._cedpf,
            Problem.EDGC: self._edgc,
            Problem.CGED: self._cged,
        }

    def unsupported_reason(
        self, problem: Problem, shape: Shape, setting: Setting
    ) -> Optional[str]:
        if shape is Shape.DAG:
            return (
                "the bottom-up method requires a treelike AT (shared subtrees "
                "break the recursion, Section VI); use bilp or enumerative"
            )
        return None

    def cell_label(self, shape: Shape, setting: Setting) -> str:
        theorem = "Theorem 9" if setting is Setting.PROBABILISTIC else "Theorem 4"
        return f"bottom-up ({theorem})"

    def _cdpf(self, model: Model, request: AnalysisRequest) -> BackendOutput:
        return BackendOutput(front=bottom_up.pareto_front_treelike(as_deterministic(model)))

    def _dgc(self, model: Model, request: AnalysisRequest) -> BackendOutput:
        value, witness = bottom_up.max_damage_given_cost_treelike(
            as_deterministic(model), request.budget
        )
        return BackendOutput(value=value, witness=witness)

    def _cgd(self, model: Model, request: AnalysisRequest) -> BackendOutput:
        value, witness = bottom_up.min_cost_given_damage_treelike(
            as_deterministic(model), request.threshold
        )
        return BackendOutput(value=value, witness=witness)

    def _cedpf(self, model: Model, request: AnalysisRequest) -> BackendOutput:
        cdpat = require_probabilistic(model, request.problem)
        return BackendOutput(front=bottom_up_prob.pareto_front_treelike_probabilistic(cdpat))

    def _edgc(self, model: Model, request: AnalysisRequest) -> BackendOutput:
        cdpat = require_probabilistic(model, request.problem)
        value, witness = bottom_up_prob.max_expected_damage_given_cost_treelike(
            cdpat, request.budget
        )
        return BackendOutput(value=value, witness=witness)

    def _cged(self, model: Model, request: AnalysisRequest) -> BackendOutput:
        cdpat = require_probabilistic(model, request.problem)
        value, witness = bottom_up_prob.min_cost_given_expected_damage_treelike(
            cdpat, request.threshold
        )
        return BackendOutput(value=value, witness=witness)


class ConditioningBackend(BaseBackend):
    """Bottom-up per subset of the shared BASs, for deterministic DAGs.

    Unfolds the DAG into a tree and runs the treelike kernel once per
    subset ``σ`` of the ``k`` BASs with several copies
    (:mod:`repro.core.conditioning`).  It declines requests where BILP is
    faster — the work ``2^k × unfolded nodes`` above the problem's
    :data:`~repro.core.conditioning.MAX_WORK` cutoff — so those still
    auto-resolve to ``bilp``; naming it runs it regardless.  Results carry
    ``extras={"shared_bas": k, "conditioned_runs": n}``.
    """

    name = "conditioning"
    priority = 92
    capabilities = cells(DETERMINISTIC_PROBLEMS, (Shape.DAG,), Setting.DETERMINISTIC)

    def __init__(self) -> None:
        self.handlers = {
            Problem.CDPF: self._cdpf,
            Problem.DGC: self._dgc,
            Problem.CGD: self._cgd,
        }

    def unsupported_reason(
        self, problem: Problem, shape: Shape, setting: Setting
    ) -> Optional[str]:
        if setting is Setting.PROBABILISTIC:
            return (
                "the conditioning backend only answers the deterministic "
                "problems; use bottom-up for treelike ATs or enumerative"
            )
        if shape is Shape.TREE:
            return (
                "the conditioning backend only covers DAG-like ATs; "
                "use bottom-up for treelike ones"
            )
        return None

    def cell_label(self, shape: Shape, setting: Setting) -> str:
        return (
            "BILP (Theorem 6), or bottom-up over k shared BASs when the "
            "2^k unfolded runs are cheaper"
        )

    def declines(self, model: Model, problem: Problem) -> Optional[str]:
        return conditioning.decline_reason(model.tree, problem)

    @staticmethod
    def _counters(kernel: conditioning.Conditioning) -> dict:
        return {"shared_bas": len(kernel.shared), "conditioned_runs": kernel.runs}

    def _cdpf(self, model: Model, request: AnalysisRequest) -> BackendOutput:
        kernel = conditioning.Conditioning(as_deterministic(model))
        front = kernel.pareto_front()
        return BackendOutput(front=front, extras=self._counters(kernel))

    def _dgc(self, model: Model, request: AnalysisRequest) -> BackendOutput:
        kernel = conditioning.Conditioning(as_deterministic(model))
        value, witness = kernel.max_damage_given_cost(request.budget)
        return BackendOutput(value=value, witness=witness, extras=self._counters(kernel))

    def _cgd(self, model: Model, request: AnalysisRequest) -> BackendOutput:
        kernel = conditioning.Conditioning(as_deterministic(model))
        value, witness = kernel.min_cost_given_damage(request.threshold)
        return BackendOutput(value=value, witness=witness, extras=self._counters(kernel))


class BilpBackend(BaseBackend):
    """Bi-objective integer linear programming (Theorem 6), DAGs included."""

    name = "bilp"
    priority = 90
    capabilities = cells(DETERMINISTIC_PROBLEMS, BOTH_SHAPES, Setting.DETERMINISTIC)

    def __init__(self) -> None:
        self.handlers = {
            Problem.CDPF: self._cdpf,
            Problem.DGC: self._dgc,
            Problem.CGD: self._cgd,
        }

    def unsupported_reason(
        self, problem: Problem, shape: Shape, setting: Setting
    ) -> Optional[str]:
        if setting is Setting.PROBABILISTIC:
            return (
                f"{problem.name} has no BILP formulation (the constraints become "
                "nonlinear); use bottom-up for treelike ATs or enumerative"
            )
        return None

    def cell_label(self, shape: Shape, setting: Setting) -> str:
        return "BILP (Theorem 6)"

    def _cdpf(self, model: Model, request: AnalysisRequest) -> BackendOutput:
        return BackendOutput(front=bilp.pareto_front_bilp(as_deterministic(model)))

    def _dgc(self, model: Model, request: AnalysisRequest) -> BackendOutput:
        value, witness = bilp.max_damage_given_cost_bilp(
            as_deterministic(model), request.budget
        )
        return BackendOutput(value=value, witness=witness)

    def _cgd(self, model: Model, request: AnalysisRequest) -> BackendOutput:
        value, witness = bilp.min_cost_given_damage_bilp(
            as_deterministic(model), request.threshold
        )
        return BackendOutput(value=value, witness=witness)


class EnumerativeBackend(BaseBackend):
    """Exhaustive enumeration over all attacks: every cell, exponential cost.

    This is the auto-selected fallback for the probabilistic-DAG cell the
    paper leaves open (Section IX).  Auto-resolution passes over it for
    models beyond the table path's BAS limit, where per-attack evaluation
    is too slow to serve (an estimated 940 s at 17 BASs); naming it runs it
    regardless.
    """

    name = "enumerative"
    priority = 10
    capabilities = cells(
        DETERMINISTIC_PROBLEMS, BOTH_SHAPES, Setting.DETERMINISTIC
    ) | cells(PROBABILISTIC_PROBLEMS, BOTH_SHAPES, Setting.PROBABILISTIC)

    def __init__(self) -> None:
        self.handlers = {
            Problem.CDPF: self._cdpf,
            Problem.DGC: self._dgc,
            Problem.CGD: self._cgd,
            Problem.CEDPF: self._cedpf,
            Problem.EDGC: self._edgc,
            Problem.CGED: self._cged,
        }

    def cell_label(self, shape: Shape, setting: Setting) -> str:
        if setting is Setting.PROBABILISTIC and shape is Shape.DAG:
            return "open problem (enumerative baseline)"
        return "enumerative baseline"

    def declines(self, model: Model, problem: Problem) -> Optional[str]:
        size = len(model.tree.basic_attack_steps)
        if size > enumerative._TABLE_LIMIT:
            return (
                f"{size} BASs exceed the {enumerative._TABLE_LIMIT}-BAS table "
                f"limit; enumerating 2^{size} attacks one by one is infeasible "
                "(name the backend to run it anyway)"
            )
        return None

    def _cdpf(self, model: Model, request: AnalysisRequest) -> BackendOutput:
        return BackendOutput(front=enumerative.enumerate_pareto_front(as_deterministic(model)))

    def _dgc(self, model: Model, request: AnalysisRequest) -> BackendOutput:
        value, witness = enumerative.enumerate_max_damage_given_cost(
            as_deterministic(model), request.budget
        )
        return BackendOutput(value=value, witness=witness)

    def _cgd(self, model: Model, request: AnalysisRequest) -> BackendOutput:
        value, witness = enumerative.enumerate_min_cost_given_damage(
            as_deterministic(model), request.threshold
        )
        return BackendOutput(value=value, witness=witness)

    def _cedpf(self, model: Model, request: AnalysisRequest) -> BackendOutput:
        cdpat = require_probabilistic(model, request.problem)
        return BackendOutput(front=enumerative.enumerate_pareto_front_probabilistic(cdpat))

    def _edgc(self, model: Model, request: AnalysisRequest) -> BackendOutput:
        cdpat = require_probabilistic(model, request.problem)
        value, witness = enumerative.enumerate_max_expected_damage_given_cost(
            cdpat, request.budget
        )
        return BackendOutput(value=value, witness=witness)

    def _cged(self, model: Model, request: AnalysisRequest) -> BackendOutput:
        cdpat = require_probabilistic(model, request.problem)
        value, witness = enumerative.enumerate_min_cost_given_expected_damage(
            cdpat, request.threshold
        )
        return BackendOutput(value=value, witness=witness)


def standard_backends() -> List[BaseBackend]:
    """Fresh instances of every built-in backend."""
    return [
        BottomUpBackend(),
        ConditioningBackend(),
        BilpBackend(),
        EnumerativeBackend(),
    ]
