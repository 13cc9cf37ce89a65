"""Security insights derived from the Pareto fronts of one model.

The six problems themselves are asked of an
:class:`repro.engine.AnalysisSession`.  The functions here read further
answers off the session's fronts — "which BASs appear in every optimal
attack?", "how much damage can each budget buy?" — and summarise a model.
They take the session rather than the model, so every front is solved once
and served from the session cache afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, NamedTuple, Optional

from ..attacktree.attributes import CostDamageProbAT
from ..engine.backend import model_shape, problem_setting
from ..engine.registry import CapabilityError, cell_label
from ..engine.session import AnalysisSession
from ..pareto.front import ParetoFront
from .problems import Problem

__all__ = [
    "BudgetDamagePoint",
    "CriticalBasReport",
    "critical_basic_attack_steps",
    "damage_budget_curve",
    "describe",
    "report",
]


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
    of the front is affordable at this budget, so "the attacker can do
    nothing" is not confused with "the attacker's best option does no
    damage".
    """

    budget: float
    damage: Optional[float]
    reachable: bool


def _front(session: AnalysisSession, probabilistic: bool) -> ParetoFront:
    if probabilistic:
        return session.expected_pareto_front().front
    return session.pareto_front().front


def describe(session: AnalysisSession) -> str:
    """A one-paragraph summary of the model and the backends that answer it.

    Names the backend the session resolves for CDPF — and, on a cdp-AT,
    for CEDPF — with its Table I entry for the model's cell.  On a DAG it
    states the shared-node count and the frontier width ``w`` of the
    labelled bottom-up fold, which decide whether that fold or BILP runs.
    """
    model = session.model
    tree = model.tree
    probabilistic = isinstance(model, CostDamageProbAT)
    shape = model_shape(model)
    problems = [Problem.CDPF, Problem.CEDPF] if probabilistic else [Problem.CDPF]
    methods = []
    for problem in problems:
        try:
            backend = session.resolve(problem)
        except CapabilityError as error:
            methods.append(f"{problem.name} has no automatic backend ({error})")
            continue
        label = cell_label(backend, shape, problem_setting(problem))
        methods.append(f"{problem.name} runs on {backend.name!r} [{label}]")
    setting = "probabilistic (cdp-AT)" if probabilistic else "deterministic (cd-AT)"
    shape_text = "treelike"
    if not tree.is_treelike:
        from .bottom_up import label_width  # kernels load on first use

        shared, width = label_width(tree)
        shape_text = f"DAG-like (shared nodes: {shared}, frontier width w = {width})"
    return (
        f"{setting} attack tree with {len(tree)} nodes "
        f"({len(tree.basic_attack_steps)} BASs), {shape_text}; "
        + "; ".join(methods) + "."
    )


def critical_basic_attack_steps(
    session: AnalysisSession, probabilistic: bool = False
) -> CriticalBasReport:
    """Classify BASs by their participation in Pareto-optimal attacks.

    The paper's case-study discussion (Section X.A–B) reads defence
    priorities off exactly this classification.
    """
    front = _front(session, probabilistic)
    optimal_attacks = [
        p.attack for p in front if p.attack is not None and len(p.attack) > 0
    ]
    all_bas = session.model.tree.basic_attack_steps
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
    session: AnalysisSession, budgets: List[float], probabilistic: bool = False
) -> List[BudgetDamagePoint]:
    """Evaluate "max damage vs budget" at the given budgets via Eq. (1).

    Budgets at which the front has no affordable point yield a
    :class:`BudgetDamagePoint` with ``damage=None`` and
    ``reachable=False``.
    """
    front = _front(session, probabilistic)
    curve = []
    for budget in budgets:
        damage = front.max_damage_given_cost(budget)
        curve.append(
            BudgetDamagePoint(budget=budget, damage=damage, reachable=damage is not None)
        )
    return curve


def report(session: AnalysisSession, probabilistic: bool = False) -> str:
    """A plain-text report: model summary, Pareto table, critical BASs."""
    front = _front(session, probabilistic)
    critical = critical_basic_attack_steps(session, probabilistic=probabilistic)
    lines = [describe(session), "", "Pareto front:", front.table(), ""]
    lines.append(
        "BASs in every optimal attack: "
        + (", ".join(sorted(critical.in_every_optimal_attack)) or "(none)")
    )
    lines.append(
        "BASs in no optimal attack:    "
        + (", ".join(sorted(critical.unused)) or "(none)")
    )
    return "\n".join(lines)
