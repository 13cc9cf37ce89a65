"""Defence hardening: choosing countermeasures against cost-damage attackers.

The data-server case study of the paper is taken from Dewri et al. [23],
whose actual topic is *optimal security hardening* — choosing, under a
defence budget, which countermeasures to implement so that the residual risk
is minimised.  This extension closes that loop on top of the cost-damage
machinery:

* a :class:`Countermeasure` raises the cost of some BASs (possibly to the
  point of disabling them) and has an implementation cost for the defender;
* :func:`apply_countermeasures` produces the hardened cd-AT;
* :func:`optimal_hardening` searches over countermeasure subsets within a
  defence budget and picks the one that minimises the attacker's optimal
  damage (problem DgC evaluated on every hardened model) — i.e. it solves
  the bi-level min-max problem by enumerating the (typically small) defence
  lattice and delegating the inner maximisation to the exact solvers.

This is an extension beyond the paper's claims; it exists because it is the
natural next question a user of the library asks ("which defence should I
buy?") and because it exercises the public API end to end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple, Union

from ..attacktree.attributes import CostDamageAT, CostDamageProbAT
from ..core.problems import Problem
from ..engine import AnalysisRequest, run_request

__all__ = ["Countermeasure", "HardeningResult", "apply_countermeasures", "optimal_hardening"]

#: Cost multiplier treated as "the BAS becomes impossible".
DISABLED = math.inf


@dataclass(frozen=True)
class Countermeasure:
    """A defensive measure that makes certain BASs harder (or impossible).

    Attributes
    ----------
    name:
        Identifier used in results.
    implementation_cost:
        What the defender pays to deploy the measure.
    cost_increase:
        Additive cost increase per affected BAS; use ``math.inf`` (or the
        module constant :data:`DISABLED`) to model a BAS that becomes
        impossible.
    """

    name: str
    implementation_cost: float
    cost_increase: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.implementation_cost < 0:
            raise ValueError("implementation cost must be non-negative")
        if not self.cost_increase:
            raise ValueError(f"countermeasure {self.name!r} affects no BAS")
        for bas, increase in self.cost_increase.items():
            if increase < 0:
                raise ValueError(
                    f"countermeasure {self.name!r} lowers the cost of {bas!r}"
                )


@dataclass(frozen=True)
class HardeningResult:
    """Outcome of :func:`optimal_hardening`."""

    chosen: Tuple[Countermeasure, ...]
    defence_cost: float
    residual_damage: float
    attacker_witness: Optional[FrozenSet[str]]
    evaluated_combinations: int

    @property
    def chosen_names(self) -> Tuple[str, ...]:
        """Names of the selected countermeasures."""
        return tuple(measure.name for measure in self.chosen)


Model = Union[CostDamageAT, CostDamageProbAT]


def apply_countermeasures(
    model: Model, measures: Iterable[Countermeasure]
) -> Model:
    """Return the hardened model with the given countermeasures applied.

    BASs whose cost becomes infinite are modelled by a finite cost exceeding
    the sum of every other BAS cost plus any conceivable budget — attacks
    using them are never optimal under a finite attacker budget, while the
    model stays a valid cd-AT (costs must be finite).
    """
    new_cost: Dict[str, float] = dict(model.cost)
    unknown = {
        bas
        for measure in measures
        for bas in measure.cost_increase
        if bas not in model.tree.basic_attack_steps
    }
    if unknown:
        raise KeyError(f"countermeasures reference unknown BASs: {sorted(unknown)!r}")

    finite_ceiling = sum(model.cost.values()) + 1.0
    disabled_cost = finite_ceiling * 1e6
    for measure in measures:
        for bas, increase in measure.cost_increase.items():
            if math.isinf(increase):
                new_cost[bas] = disabled_cost
            else:
                new_cost[bas] = new_cost[bas] + increase

    if isinstance(model, CostDamageProbAT):
        return CostDamageProbAT(
            model.tree, new_cost, dict(model.damage), dict(model.probability)
        )
    return CostDamageAT(model.tree, new_cost, dict(model.damage))


def optimal_hardening(
    model: Model,
    countermeasures: Sequence[Countermeasure],
    defence_budget: float,
    attacker_budget: float,
    probabilistic: bool = False,
    max_countermeasures: Optional[int] = None,
) -> HardeningResult:
    """Choose countermeasures minimising the attacker's optimal damage.

    Parameters
    ----------
    model:
        The baseline cd-AT / cdp-AT.
    countermeasures:
        The available defences.
    defence_budget:
        Maximum total implementation cost.
    attacker_budget:
        The attacker budget ``U`` used for the inner DgC/EDgC evaluation.
    probabilistic:
        Evaluate expected damage (EDgC) instead of deterministic damage;
        requires a cdp-AT.
    max_countermeasures:
        Optional cap on the subset size (prunes the search lattice).

    Notes
    -----
    The search enumerates affordable countermeasure subsets — exponential in
    the number of countermeasures, which is fine for the realistic handful a
    security team weighs up.  Ties are broken towards cheaper defences.
    """
    if defence_budget < 0:
        raise ValueError("defence budget must be non-negative")
    if len({measure.name for measure in countermeasures}) != len(countermeasures):
        raise ValueError("countermeasure names must be unique")
    problem = Problem.EDGC if probabilistic else Problem.DGC

    best: Optional[HardeningResult] = None
    evaluated = 0
    limit = max_countermeasures if max_countermeasures is not None else len(countermeasures)
    for size in range(0, limit + 1):
        for combo in itertools.combinations(countermeasures, size):
            cost = sum(measure.implementation_cost for measure in combo)
            if cost > defence_budget + 1e-9:
                continue
            hardened = apply_countermeasures(model, combo)
            evaluated += 1
            result = run_request(
                hardened, AnalysisRequest(problem, budget=attacker_budget)
            )
            candidate = HardeningResult(
                chosen=tuple(combo),
                defence_cost=cost,
                residual_damage=result.value,
                attacker_witness=result.witness,
                evaluated_combinations=0,
            )
            if best is None or _better(candidate, best):
                best = candidate

    assert best is not None  # size-0 combination is always affordable
    return HardeningResult(
        chosen=best.chosen,
        defence_cost=best.defence_cost,
        residual_damage=best.residual_damage,
        attacker_witness=best.attacker_witness,
        evaluated_combinations=evaluated,
    )


def _better(candidate: HardeningResult, incumbent: HardeningResult) -> bool:
    """Lower residual damage wins; ties go to the cheaper defence."""
    if candidate.residual_damage < incumbent.residual_damage - 1e-9:
        return True
    if candidate.residual_damage > incumbent.residual_damage + 1e-9:
        return False
    return candidate.defence_cost < incumbent.defence_cost - 1e-9
