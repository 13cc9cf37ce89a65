"""Bottom-up cost-damage analysis for treelike ATs (probabilistic setting).

This module implements Section IX of the paper.  The recursion mirrors the
deterministic one (:mod:`repro.core.bottom_up`) but works in the
*probabilistic attribute-triple domain* ``PTrip = R≥0 × R≥0 × [0, 1]``:
each partial attack on ``T_v`` is summarised by
``(ĉ(x), d̂_E(x), PS(x, v))`` — its cost, its expected damage within the
sub-tree, and the probability that the sub-tree's root is reached.

When folding children into a gate (Equations (11)–(13)):

* an AND gate multiplies the children's reach probabilities
  (``p₁·p₂``, Equation (9));
* an OR gate combines them with ``p₁ ⋆ p₂ = p₁ + p₂ − p₁p₂`` (Equation (8));
* the gate's own damage contributes ``PS(x, v)·d(v)`` to the expected damage
  (Equation (10)).

Both rules rely on the independence of sibling sub-trees, which holds
exactly because the AT is treelike.  Theorems 8 and 9 read EDgC and CEDPF
off the root front, exactly as in the deterministic case.

A notable practical difference (Example 10): in the probabilistic setting it
can be Pareto-optimal to attempt *more* BASs than strictly necessary, because
redundant attempts raise the reach probability; root fronts are therefore
typically larger than their deterministic counterparts.

Kernel representation
---------------------
As in the deterministic kernel, candidates are rows of parallel lists —
``(cost, expected damage, reach probability, bitset mask)`` — instead of
per-candidate dataclasses, and witness attacks are integer bitsets over the
subtree-local BAS universe.  Because the reach probability is continuous the
front cannot be split into reached/not-reached quadrants; instead pruning is
an exact 3-D sweep: rows are sorted by (cost asc, damage desc, probability
desc) and checked against a monotone (damage, probability) skyline of the
rows kept so far, which makes each insertion ``O(log k)`` amortised.  The
traversal and the memo of structurally identical subtrees are the shared
:class:`repro.core.bottom_up._Kernel` driver; this module supplies only the
PTrip leaf front, child fold and gate-damage step.

Masks are materialised to ``frozenset[str]`` and the paper's ε-tolerant
``min`` applied only at the API boundary.  The answers (CEDPF, EDgC, CgED)
read ``(cost, expected damage)`` alone (Theorems 8–9), so they minimise the
projected root rows once, in 2-D; only
:func:`node_pareto_front_probabilistic`, the paper's ``C^P_U(v)``,
minimises in the full PTrip order.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from ..attacktree.attributes import CostDamageProbAT
from ..pareto.front import ParetoFront, ParetoPoint
from ..pareto.poset import pareto_minimal_pairs, pareto_minimal_triples
from .bottom_up import _Kernel, _fewer_bas, _mask_to_attack

__all__ = [
    "ProbabilisticAttributedAttack",
    "node_pareto_front_probabilistic",
    "pareto_front_treelike_probabilistic",
    "max_expected_damage_given_cost_treelike",
    "min_cost_given_expected_damage_treelike",
]


def probabilistic_or(p1: float, p2: float) -> float:
    """The ``⋆`` operator: probability that at least one of two independent
    events with probabilities ``p1`` and ``p2`` occurs."""
    return p1 + p2 - p1 * p2


@dataclass(frozen=True)
class ProbabilisticAttributedAttack:
    """A partial attack with its PTrip attributes and witness.

    Attributes
    ----------
    cost:
        ``ĉ_v(x)`` — cost of the attempted BASs.
    expected_damage:
        ``d̂_{E,v}(x)`` — expected damage within the sub-tree.
    reach_probability:
        ``PS(x, v)`` — probability that the sub-tree's root is reached.
    attack:
        Witness: the attempted BASs.
    """

    cost: float
    expected_damage: float
    reach_probability: float
    attack: FrozenSet[str]

    @property
    def triple(self) -> Tuple[float, float, float]:
        """The PTrip value ``(c, d, p)``."""
        return (self.cost, self.expected_damage, self.reach_probability)


# A row-sorted front: parallel (costs, damages, probabilities, masks) lists,
# exactly Pareto-minimal, sorted by (cost asc, damage desc, probability desc).
_Rows = Tuple[List[float], List[float], List[float], List[int]]


def _prune3(buffer: List[Tuple[float, float, float, int]]) -> _Rows:
    """Exact 3-D Pareto minimisation of ``(cost, damage, prob, mask)`` rows.

    Rows are processed in (cost asc, damage desc, prob desc) order, so every
    kept row costs at most as much as the candidate; the candidate is
    dominated iff some kept row also has damage ≥ and probability ≥ its own.
    The kept rows' undominated (damage, probability) pairs form a skyline —
    damages strictly decreasing, probabilities strictly increasing — queried
    and maintained by binary search.  Equal-valued duplicates are dropped
    (the front is a set of attribute values); they sort next to each other,
    and the one with the fewest BASs is the witness (the EDgC tie-break).
    """
    buffer.sort(key=lambda row: (row[0], -row[1], -row[2]))
    costs: List[float] = []
    damages: List[float] = []
    probabilities: List[float] = []
    masks: List[int] = []
    sky_keys: List[float] = []  # negated damages, ascending (for bisect)
    sky_probs: List[float] = []  # probabilities, strictly increasing
    for cost, damage, probability, mask in buffer:
        hi = bisect_right(sky_keys, -damage)
        if hi > 0 and sky_probs[hi - 1] >= probability:
            # Weakly dominated by a kept row, or a duplicate of the last.
            if (
                cost == costs[-1] and damage == damages[-1]
                and probability == probabilities[-1]
                and _fewer_bas(mask, masks[-1])
            ):
                masks[-1] = mask
            continue
        lo = bisect_left(sky_keys, -damage)
        while lo < len(sky_keys) and sky_probs[lo] <= probability:
            del sky_keys[lo]
            del sky_probs[lo]
        sky_keys.insert(lo, -damage)
        sky_probs.insert(lo, probability)
        costs.append(cost)
        damages.append(damage)
        probabilities.append(probability)
        masks.append(mask)
    return costs, damages, probabilities, masks


class _ProbKernel(_Kernel[_Rows]):
    """The PTrip setting: a node's front is one exactly minimal row set."""

    dag_error = (
        "the probabilistic bottom-up method requires a treelike AT; "
        "probabilistic DAG-like analysis is an open problem in the paper "
        "(see repro.core.enumerative for the exhaustive baseline)"
    )

    def _decoration(self, name: str) -> Tuple[float, float, float]:
        model = self.model
        return (model.cost[name], model.damage[name], model.probability[name])

    def _leaf(self, cost: float, damage: float, probability: float) -> _Rows:
        if cost > self.limit:
            return ([0.0], [0.0], [0.0], [0])
        return _prune3(
            [(0.0, 0.0, 0.0, 0), (cost, probability * damage, probability, 1)]
        )

    def _fold(
        self, left: _Rows, right: _Rows, conjunctive: bool, shift: int
    ) -> _Rows:
        """Fold one child in (Equations (12)–(13)), budget-pruned early."""
        lc, ld, lp, lm = left
        rc, rd, rp, rm = right
        limit = self.limit
        buffer: List[Tuple[float, float, float, int]] = []
        append = buffer.append
        for i in range(len(lc)):
            ci = lc[i]
            di = ld[i]
            pi = lp[i]
            mi = lm[i]
            for j in range(len(rc)):
                cost = ci + rc[j]
                if cost > limit:
                    break  # right-hand costs ascend: nothing further fits
                pj = rp[j]
                reach = pi * pj if conjunctive else pi + pj - pi * pj
                append((cost, di + rd[j], reach, mi | (rm[j] << shift)))
        return _prune3(buffer)

    def _add_gate_damage(self, front: _Rows, gate_damage: float) -> _Rows:
        """The gate's damage counts with its reach probability (Equation (10))."""
        fc, fd, fp, fm = front
        return _prune3(
            [(fc[i], fd[i] + fp[i] * gate_damage, fp[i], fm[i]) for i in range(len(fc))]
        )


def _root_points(cdpat: CostDamageProbAT, budget: float) -> List[ParetoPoint]:
    """The root rows as (cost, expected damage) points, unminimised."""
    (costs, damages, probabilities, masks), names = _ProbKernel.run(cdpat, None, budget)
    return [
        ParetoPoint(
            cost=costs[i],
            damage=damages[i],
            attack=_mask_to_attack(masks[i], names),
            reaches_root=probabilities[i] > 0.0,
        )
        for i in range(len(costs))
    ]


def node_pareto_front_probabilistic(
    cdpat: CostDamageProbAT,
    node: Optional[str] = None,
    budget: float = math.inf,
) -> List[ProbabilisticAttributedAttack]:
    """Compute the incomplete probabilistic Pareto front ``C^P_U(v)``.

    Parameters and behaviour mirror
    :func:`repro.core.bottom_up.node_pareto_front`; the computation follows
    Equations (11)–(13) and Theorem 10 of the paper.
    """
    (costs, damages, probabilities, masks), names = _ProbKernel.run(cdpat, node, budget)
    items = [
        ProbabilisticAttributedAttack(
            cost=costs[i],
            expected_damage=damages[i],
            reach_probability=probabilities[i],
            attack=_mask_to_attack(masks[i], names),
        )
        for i in range(len(costs))
    ]
    # The paper's ε-tolerant min_U in the PTrip order, applied once.
    return pareto_minimal_triples(items, key=lambda item: item.triple)


def pareto_front_treelike_probabilistic(
    cdpat: CostDamageProbAT, budget: float = math.inf
) -> ParetoFront:
    """Solve CEDPF for a treelike cdp-AT bottom-up (Theorem 9).

    The root rows are projected onto ``(cost, expected damage)`` and
    minimised; the reach probabilities only matter inside the recursion.
    """
    return ParetoFront(_root_points(cdpat, budget))


def max_expected_damage_given_cost_treelike(
    cdpat: CostDamageProbAT, budget: float
) -> Tuple[float, Optional[FrozenSet[str]]]:
    """Solve EDgC for a treelike cdp-AT (Theorem 8).

    Expected-damage ties are broken towards the least cost, then the fewest
    attempted BASs, mirroring the deterministic DgC solver.
    """
    if budget < 0:
        return 0.0, None
    points = pareto_minimal_pairs(_root_points(cdpat, budget), key=lambda p: p.value)
    best = max(points, key=lambda p: (p.damage, -p.cost, -len(p.attack)))
    return best.damage, best.attack


def min_cost_given_expected_damage_treelike(
    cdpat: CostDamageProbAT, threshold: float
) -> Tuple[Optional[float], Optional[FrozenSet[str]]]:
    """Solve CgED for a treelike cdp-AT via the full front (Equation (2))."""
    front = pareto_front_treelike_probabilistic(cdpat)
    point = front.cheapest_attack_given_damage(threshold)
    if point is None:
        return None, None
    return point.cost, point.attack
