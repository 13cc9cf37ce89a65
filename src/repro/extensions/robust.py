"""Robust (interval-valued) cost-damage analysis.

The paper's conclusion notes that cost and damage values "may not be
precisely known, but carry some uncertainty", and suggests a robust version
of the cost-damage Pareto front as future work.  This extension implements a
simple but useful interval semantics:

* every BAS cost and every node damage is an interval ``[lo, hi]``;
* the **optimistic front** (from the defender's viewpoint) uses the highest
  costs and lowest damages — attacks look as unattractive as possible;
* the **pessimistic front** uses the lowest costs and highest damages —
  attacks look as attractive as possible;
* a point is **robustly Pareto-optimal** when it lies on the front for
  *every* realisation of the intervals; we report the practical sufficient
  check "optimal in both extreme scenarios", together with the band between
  the two extreme fronts.

This is a conservative envelope, not a full parametric analysis, and is
documented as an extension beyond the paper's claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Mapping, Optional, Tuple, Union

from ..attacktree.attributes import CostDamageAT
from ..attacktree.tree import AttackTree
from ..core.problems import Problem
from ..engine import AnalysisRequest, run_request
from ..pareto.front import ParetoFront

__all__ = ["Interval", "IntervalCostDamageAT", "RobustFront", "robust_pareto_front"]


@dataclass(frozen=True)
class Interval:
    """A closed non-negative interval ``[lo, hi]``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi < self.lo:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, value: float) -> "Interval":
        """A degenerate interval ``[value, value]``."""
        return cls(value, value)

    @property
    def width(self) -> float:
        """The interval's width ``hi − lo``."""
        return self.hi - self.lo


IntervalLike = Union[Interval, float, Tuple[float, float]]


def _as_interval(value: IntervalLike) -> Interval:
    if isinstance(value, Interval):
        return value
    if isinstance(value, tuple):
        return Interval(float(value[0]), float(value[1]))
    return Interval.exact(float(value))


@dataclass(frozen=True)
class IntervalCostDamageAT:
    """A cd-AT whose costs and damages are intervals.

    Costs cover the BASs; damages cover any subset of nodes (missing nodes
    default to the exact interval ``[0, 0]``).
    """

    tree: AttackTree
    cost: Mapping[str, Interval]
    damage: Mapping[str, Interval]

    def __init__(
        self,
        tree: AttackTree,
        cost: Mapping[str, IntervalLike],
        damage: Optional[Mapping[str, IntervalLike]] = None,
    ) -> None:
        object.__setattr__(self, "tree", tree)
        object.__setattr__(
            self, "cost", {name: _as_interval(value) for name, value in cost.items()}
        )
        object.__setattr__(
            self,
            "damage",
            {name: _as_interval(value) for name, value in (damage or {}).items()},
        )
        missing = set(tree.basic_attack_steps) - set(self.cost)
        if missing:
            raise ValueError(f"cost intervals missing for BASs: {sorted(missing)!r}")

    def scenario(self, *, attacker_favourable: bool) -> CostDamageAT:
        """Instantiate an extreme scenario.

        ``attacker_favourable=True`` uses the low costs and high damages
        (the pessimistic view for the defender); ``False`` the opposite.
        """
        if attacker_favourable:
            cost = {b: interval.lo for b, interval in self.cost.items()}
            damage = {n: interval.hi for n, interval in self.damage.items()}
        else:
            cost = {b: interval.hi for b, interval in self.cost.items()}
            damage = {n: interval.lo for n, interval in self.damage.items()}
        return CostDamageAT(self.tree, cost, damage)


@dataclass(frozen=True)
class RobustFront:
    """The two extreme Pareto fronts and the robustly optimal attacks."""

    pessimistic: ParetoFront
    optimistic: ParetoFront
    robust_attacks: FrozenSet[FrozenSet[str]]

    def damage_band(self, budget: float) -> Tuple[float, float]:
        """The [min, max] worst-case damage achievable within a budget.

        The lower end comes from the optimistic scenario, the upper end from
        the pessimistic one; the true value for any interval realisation lies
        in between (costs and damages are monotone in their parameters).
        """
        low = self.optimistic.max_damage_given_cost(budget) or 0.0
        high = self.pessimistic.max_damage_given_cost(budget) or 0.0
        return (low, high)


def robust_pareto_front(model: IntervalCostDamageAT) -> RobustFront:
    """Compute the extreme-scenario fronts and the robustly optimal attacks.

    An attack is reported as robust when its witness appears on the Pareto
    front of *both* extreme scenarios.  (This is a sufficient condition for
    being optimal in the two extremes; intermediate realisations interpolate
    between them for the monotone interval semantics used here.)
    """
    pessimistic_model = model.scenario(attacker_favourable=True)
    optimistic_model = model.scenario(attacker_favourable=False)
    pessimistic = run_request(pessimistic_model, AnalysisRequest(Problem.CDPF)).front
    optimistic = run_request(optimistic_model, AnalysisRequest(Problem.CDPF)).front

    pessimistic_attacks = {p.attack for p in pessimistic if p.attack is not None}
    optimistic_attacks = {p.attack for p in optimistic if p.attack is not None}
    robust = frozenset(pessimistic_attacks & optimistic_attacks)
    return RobustFront(pessimistic=pessimistic, optimistic=optimistic, robust_attacks=robust)
