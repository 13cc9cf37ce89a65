"""High-level analyzer facade.

:class:`CostDamageAnalyzer` is the question-oriented entry point of the
library: wrap a cd-AT or cdp-AT once, then ask security questions in domain
terms — "what is the worst damage an attacker with budget 10 can do?",
"which attacks are Pareto-optimal?", "which BASs appear in every optimal
attack?" — without having to pick an algorithm.  Since the engine redesign
it is a thin veneer over :class:`repro.engine.AnalysisSession`: algorithm
selection is delegated to the engine's capability registry (Table I of the
paper) and every result is cached by the session, keyed on the model
fingerprint and the exact request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, NamedTuple, Optional, Union

from ..attacktree.attributes import CostDamageAT, CostDamageProbAT
from ..engine.requests import AnalysisRequest
from ..engine.session import AnalysisSession
from ..pareto.front import ParetoFront
from .problems import (
    _METHOD_TO_BACKEND,
    _to_solve_result,
    Method,
    Problem,
    SolveResult,
)

__all__ = ["CostDamageAnalyzer", "CriticalBasReport", "BudgetDamagePoint"]


@dataclass(frozen=True)
class CriticalBasReport:
    """Which BASs matter most according to the Pareto front.

    Attributes
    ----------
    in_every_optimal_attack:
        BASs contained in every nonzero Pareto-optimal attack — the paper's
        case studies use this to prioritise defenses (e.g. ``b18`` internal
        leakage in the panda AT, Section X.A).
    in_some_optimal_attack:
        BASs appearing in at least one Pareto-optimal attack.
    unused:
        BASs appearing in no Pareto-optimal attack.
    """

    in_every_optimal_attack: FrozenSet[str]
    in_some_optimal_attack: FrozenSet[str]
    unused: FrozenSet[str]


class BudgetDamagePoint(NamedTuple):
    """One sample of the "max damage vs budget" curve (Eq. (1)).

    ``damage`` is ``None`` — and ``reachable`` is ``False`` — when no point
    of the front is affordable at this budget.  Earlier versions silently
    coerced that case to damage ``0.0``, conflating "the attacker can do
    nothing" with "the attacker's best option does no damage"; the
    distinction now surfaces explicitly.
    """

    budget: float
    damage: Optional[float]
    reachable: bool


class CostDamageAnalyzer:
    """Uniform, cached access to every cost-damage analysis of one model.

    Parameters
    ----------
    model:
        The decorated attack tree.  A plain cd-AT only supports the
        deterministic problems; a cdp-AT supports all six.
    method:
        Default solution method (``Method.AUTO`` lets the engine registry
        follow Table I).

    The heavy lifting — backend resolution, result caching, metadata — is
    done by the underlying :class:`repro.engine.AnalysisSession`, available
    as :attr:`session` for callers that want batches or structured results.
    """

    def __init__(self, model: Union[CostDamageAT, CostDamageProbAT],
                 method: Method = Method.AUTO) -> None:
        self.model = model
        self.method = method
        self.session = AnalysisSession(model)

    def _backend(self, method: Optional[Method]) -> Optional[str]:
        chosen = method or self.method
        return _METHOD_TO_BACKEND.get(chosen)

    def _solve_cached(
        self,
        problem: Problem,
        method: Optional[Method],
        budget: Optional[float] = None,
        threshold: Optional[float] = None,
    ) -> SolveResult:
        """Run one single-objective problem through the cached session."""
        result = self.session.run(
            AnalysisRequest(
                problem,
                budget=budget,
                threshold=threshold,
                backend=self._backend(method),
            )
        )
        return _to_solve_result(problem, result)

    # ------------------------------------------------------------------ #
    # model facts
    # ------------------------------------------------------------------ #
    @property
    def is_treelike(self) -> bool:
        """Whether the underlying AT is treelike."""
        return self.model.tree.is_treelike

    @property
    def is_probabilistic(self) -> bool:
        """Whether the model carries success probabilities."""
        return isinstance(self.model, CostDamageProbAT)

    def describe(self) -> str:
        """A one-paragraph summary of the model and applicable algorithms."""
        tree = self.model.tree
        shape = "treelike" if tree.is_treelike else "DAG-like"
        setting = "probabilistic (cdp-AT)" if self.is_probabilistic else "deterministic (cd-AT)"
        if tree.is_treelike:
            algorithm = "bottom-up Pareto propagation (Theorems 4 and 9)"
        elif self.is_probabilistic:
            algorithm = (
                "BILP for the deterministic projection (Theorem 6); the "
                "probabilistic DAG case is the paper's open problem"
            )
        else:
            backend = self.session.resolve(Problem.CDPF).name
            algorithm = {
                "conditioning": (
                    "bottom-up Pareto propagation once per subset of the "
                    "shared BASs (bi-objective integer linear programming, "
                    "Theorem 6, when sharing is heavier)"
                ),
                "bilp": "bi-objective integer linear programming (Theorem 6)",
            }.get(backend, f"the {backend!r} backend")
        return (
            f"{setting} attack tree with {len(tree)} nodes "
            f"({len(tree.basic_attack_steps)} BASs), {shape}; "
            f"applicable exact method: {algorithm}."
        )

    # ------------------------------------------------------------------ #
    # deterministic analyses
    # ------------------------------------------------------------------ #
    def pareto_front(self, method: Optional[Method] = None) -> ParetoFront:
        """The cost-damage Pareto front (problem CDPF)."""
        return self.session.pareto_front(backend=self._backend(method)).front

    def max_damage(self, budget: float, method: Optional[Method] = None) -> SolveResult:
        """Problem DgC: the most damaging attack within a cost budget."""
        return self._solve_cached(Problem.DGC, method, budget=budget)

    def min_cost(self, threshold: float, method: Optional[Method] = None) -> SolveResult:
        """Problem CgD: the cheapest attack reaching a damage threshold."""
        return self._solve_cached(Problem.CGD, method, threshold=threshold)

    # ------------------------------------------------------------------ #
    # probabilistic analyses
    # ------------------------------------------------------------------ #
    def expected_pareto_front(self, method: Optional[Method] = None) -> ParetoFront:
        """The cost-expected-damage Pareto front (problem CEDPF)."""
        return self.session.expected_pareto_front(backend=self._backend(method)).front

    def max_expected_damage(
        self, budget: float, method: Optional[Method] = None
    ) -> SolveResult:
        """Problem EDgC: the attack maximising expected damage within budget."""
        return self._solve_cached(Problem.EDGC, method, budget=budget)

    def min_cost_expected(
        self, threshold: float, method: Optional[Method] = None
    ) -> SolveResult:
        """Problem CgED: the cheapest attack with expected damage ≥ threshold."""
        return self._solve_cached(Problem.CGED, method, threshold=threshold)

    # ------------------------------------------------------------------ #
    # derived security insights
    # ------------------------------------------------------------------ #
    def critical_basic_attack_steps(
        self, probabilistic: bool = False
    ) -> CriticalBasReport:
        """Classify BASs by their participation in Pareto-optimal attacks.

        The paper's case-study discussion (Section X.A–B) reads defence
        priorities off exactly this classification.
        """
        front = self.expected_pareto_front() if probabilistic else self.pareto_front()
        optimal_attacks = [
            p.attack for p in front if p.attack is not None and len(p.attack) > 0
        ]
        all_bas = self.model.tree.basic_attack_steps
        if not optimal_attacks:
            return CriticalBasReport(frozenset(), frozenset(), all_bas)
        in_every = frozenset.intersection(*optimal_attacks)
        in_some = frozenset.union(*optimal_attacks)
        return CriticalBasReport(
            in_every_optimal_attack=in_every,
            in_some_optimal_attack=in_some,
            unused=all_bas - in_some,
        )

    def damage_budget_curve(
        self, budgets: List[float], probabilistic: bool = False
    ) -> List[BudgetDamagePoint]:
        """Evaluate "max damage vs budget" at the given budgets via Eq. (1).

        Budgets at which the front has no affordable point yield a
        :class:`BudgetDamagePoint` with ``damage=None`` and
        ``reachable=False`` instead of a misleading ``0.0``.
        """
        front = self.expected_pareto_front() if probabilistic else self.pareto_front()
        curve = []
        for budget in budgets:
            damage = front.max_damage_given_cost(budget)
            curve.append(
                BudgetDamagePoint(
                    budget=budget, damage=damage, reachable=damage is not None
                )
            )
        return curve

    def report(self, probabilistic: bool = False) -> str:
        """A plain-text report: model summary, Pareto table, critical BASs."""
        front = self.expected_pareto_front() if probabilistic else self.pareto_front()
        critical = self.critical_basic_attack_steps(probabilistic=probabilistic)
        lines = [self.describe(), "", "Pareto front:", front.table(), ""]
        lines.append(
            "BASs in every optimal attack: "
            + (", ".join(sorted(critical.in_every_optimal_attack)) or "(none)")
        )
        lines.append(
            "BASs in no optimal attack:    "
            + (", ".join(sorted(critical.unused)) or "(none)")
        )
        return "\n".join(lines)
