"""Built-in backends: the paper's three exact solvers.

Every backend is exact and auto-selectable (Table I):

* ``bottom-up`` — Pareto propagation (Theorems 4 and 9); on deterministic
  DAGs it folds shared nodes as dominator labels and declines, to
  ``bilp``, models whose frontier width exceeds :data:`MAX_WIDTH`;
* ``bilp`` — bi-objective integer programming for deterministic DAGs
  (Theorem 6; no probabilistic formulation exists, see Section IX);
* ``enumerative`` — the exhaustive baseline; covers every cell, including
  the probabilistic-DAG open problem, at exponential cost.

Each backend maps problems to handlers through a plain dict, so adding a
problem or a backend never touches a dispatch ladder.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core import bilp, bottom_up, bottom_up_prob, enumerative
from ..core.problems import Problem
from ..milp import highs
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
    "MAX_WIDTH",
    "BottomUpBackend",
    "BilpBackend",
    "EnumerativeBackend",
    "standard_backends",
]

DETERMINISTIC_PROBLEMS = (Problem.CDPF, Problem.DGC, Problem.CGD)
PROBABILISTIC_PROBLEMS = (Problem.CEDPF, Problem.EDGC, Problem.CGED)
BOTH_SHAPES = (Shape.TREE, Shape.DAG)


#: The widest labelled fold ``bottom-up`` takes on a deterministic DAG, per
#: problem: the largest frontier width ``w`` at which it beat ``bilp`` on
#: the ``wide-fan`` family (``benchmarks/DESIGN.md`` has the table).  CDPF
#: costs BILP two solves per front point; DgC and CgD only one or a few.
MAX_WIDTH: Dict[Problem, int] = {Problem.CDPF: 11, Problem.DGC: 5, Problem.CGD: 5}


class BottomUpBackend(BaseBackend):
    """Bottom-up Pareto propagation (Theorems 4 and 9).

    Deterministic DAGs fold with dominator labels
    (:mod:`repro.core.bottom_up`); results on them carry
    ``extras={"shared_nodes": s, "width": w}``.
    """

    name = "bottom-up"
    priority = 100
    capabilities = cells(
        DETERMINISTIC_PROBLEMS, BOTH_SHAPES, Setting.DETERMINISTIC
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
                "the probabilistic bottom-up method requires a treelike AT "
                "(shared subtrees break independence, Section IX); use enumerative"
            )
        return None

    def cell_label(self, shape: Shape, setting: Setting) -> str:
        if shape is Shape.DAG:
            return (
                "bottom-up with dominator labels (width ≤ cutoff), "
                "else BILP (Theorem 6)"
            )
        theorem = "Theorem 9" if setting is Setting.PROBABILISTIC else "Theorem 4"
        return f"bottom-up ({theorem})"

    def declines(self, model: Model, problem: Problem) -> Optional[str]:
        if model.tree.is_treelike:
            return None
        shared, width = bottom_up.label_width(model.tree)
        if width > MAX_WIDTH[problem]:
            return (
                f"{shared} shared nodes keep up to {width} labels open, above "
                f"the {problem.value} width cutoff of {MAX_WIDTH[problem]}; "
                "BILP is faster there"
            )
        return None

    @staticmethod
    def _extras(model: Model) -> dict:
        if model.tree.is_treelike:
            return {}
        shared, width = bottom_up.label_width(model.tree)
        return {"shared_nodes": shared, "width": width}

    def _cdpf(self, model: Model, request: AnalysisRequest) -> BackendOutput:
        return BackendOutput(
            front=bottom_up.pareto_front_treelike(as_deterministic(model)),
            extras=self._extras(model),
        )

    def _dgc(self, model: Model, request: AnalysisRequest) -> BackendOutput:
        value, witness = bottom_up.max_damage_given_cost_treelike(
            as_deterministic(model), request.budget
        )
        return BackendOutput(value=value, witness=witness, extras=self._extras(model))

    def _cgd(self, model: Model, request: AnalysisRequest) -> BackendOutput:
        value, witness = bottom_up.min_cost_given_damage_treelike(
            as_deterministic(model), request.threshold
        )
        return BackendOutput(value=value, witness=witness, extras=self._extras(model))

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

    def prepare(self) -> None:
        highs.load()

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
        BilpBackend(),
        EnumerativeBackend(),
    ]
