"""Probabilistic attack semantics: actualized attacks and expected damage.

In the probabilistic setting (Section VIII) each attempted BAS succeeds
independently with probability ``p(v)``.  The *actualized attack* ``Y_x`` is
the random subset of the attempted BASs that actually succeed
(Definition 6); the metric of interest is the **expected damage**
``d̂_E(x) = E[d̂(Y_x)] = Σ_v PS(x, v)·d(v)`` where
``PS(x, v) = P(S(Y_x, v) = 1)`` is the probabilistic structure function.

For **treelike** ATs, ``PS`` can be computed bottom-up because the children
of a node depend on disjoint BAS sets and are therefore independent
(Equations (8)–(9)).  For **DAG-like** ATs that independence fails; this
module then falls back to exact enumeration over the ``2^{|x|}``
actualizations (adequate for the small attacks used in tests, and the
per-attack fallback of :mod:`repro.core.enumerative` beyond its table
limit).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, Tuple

from ..attacktree.attributes import CostDamageProbAT
from ..attacktree.node import NodeType
from ..core.semantics import Attack, attack_damage, normalize_attack

__all__ = [
    "actualization_distribution",
    "reach_probabilities_treelike",
    "reach_probabilities_exact",
    "reach_probabilities",
    "expected_damage",
    "expected_damage_via_enumeration",
]


def actualization_distribution(
    cdpat: CostDamageProbAT, attack: Iterable[str]
) -> Iterator[Tuple[Attack, float]]:
    """Yield every actualized attack ``y ⪯ x`` with its probability.

    The distribution of ``Y_x`` (Definition 6): each attempted BAS ``v``
    succeeds independently with probability ``p(v)``, so
    ``P(Y_x = y) = Π_{v∈x} p(v)^{y_v} (1 − p(v))^{1 − y_v}`` for ``y ⪯ x``.
    Outcomes with probability zero are still yielded (they carry weight 0 in
    any expectation), keeping the support predictable for tests.
    """
    attempted = sorted(normalize_attack(cdpat, attack))
    for outcome_bits in itertools.product([0, 1], repeat=len(attempted)):
        probability = 1.0
        succeeded = []
        for bas, bit in zip(attempted, outcome_bits):
            p = cdpat.probability[bas]
            if bit:
                probability *= p
                succeeded.append(bas)
            else:
                probability *= 1.0 - p
        yield frozenset(succeeded), probability


def reach_probabilities_treelike(
    cdpat: CostDamageProbAT, attack: Iterable[str]
) -> Dict[str, float]:
    """Compute ``PS(x, v)`` for every node of a **treelike** cdp-AT.

    Uses the bottom-up recursion of Equations (8)–(9): for an OR gate the
    children's reach events are independent, so
    ``PS = p₁ ⋆ p₂ ⋆ … = 1 − Π(1 − p_i)``; for an AND gate ``PS = Π p_i``.

    Raises ``ValueError`` when the tree is not treelike, because the
    independence argument (and hence the recursion) is unsound for shared
    subtrees.
    """
    tree = cdpat.tree
    if not tree.is_treelike:
        raise ValueError(
            "reach_probabilities_treelike requires a treelike AT; "
            "use reach_probabilities_exact for DAG-like ATs"
        )
    active = normalize_attack(cdpat, attack)
    result: Dict[str, float] = {}
    for name in tree.node_names:  # bottom-up topological order
        node = tree.node(name)
        if node.is_bas:
            result[name] = cdpat.probability[name] if name in active else 0.0
        elif node.type is NodeType.OR:
            failure = 1.0
            for child in node.children:
                failure *= 1.0 - result[child]
            result[name] = 1.0 - failure
        else:  # AND
            success = 1.0
            for child in node.children:
                success *= result[child]
            result[name] = success
    return result


def reach_probabilities_exact(
    cdpat: CostDamageProbAT, attack: Iterable[str]
) -> Dict[str, float]:
    """Compute ``PS(x, v)`` exactly by enumerating actualizations.

    Correct for arbitrary (DAG-like) ATs but exponential in ``|x|``; intended
    for validation and for the probabilistic-DAG extension on small models.
    """
    tree = cdpat.tree
    totals: Dict[str, float] = {name: 0.0 for name in tree.node_names}
    for outcome, probability in actualization_distribution(cdpat, attack):
        if probability == 0.0:
            continue
        reached = tree.structure_function(outcome)
        for name, hit in reached.items():
            if hit:
                totals[name] += probability
    return totals


def reach_probabilities(
    cdpat: CostDamageProbAT, attack: Iterable[str]
) -> Dict[str, float]:
    """Compute ``PS(x, v)`` with the best available exact method.

    Treelike ATs use the linear-time bottom-up recursion; DAG-like ATs fall
    back to exact enumeration over actualizations.
    """
    if cdpat.tree.is_treelike:
        return reach_probabilities_treelike(cdpat, attack)
    return reach_probabilities_exact(cdpat, attack)


def expected_damage(cdpat: CostDamageProbAT, attack: Iterable[str]) -> float:
    """The expected damage ``d̂_E(x) = Σ_v PS(x, v)·d(v)``."""
    probabilities = reach_probabilities(cdpat, attack)
    return sum(
        probabilities[node] * cdpat.damage[node] for node in cdpat.tree.node_names
    )


def expected_damage_via_enumeration(
    cdpat: CostDamageProbAT, attack: Iterable[str]
) -> float:
    """The expected damage computed directly from Definition 6.

    ``d̂_E(x) = Σ_{y ⪯ x} P(Y_x = y)·d̂(y)``.  Exponential in ``|x|``; used
    as an independent oracle in tests (it exercises a different code path
    from :func:`expected_damage`).
    """
    deterministic = cdpat.deterministic()
    total = 0.0
    for outcome, probability in actualization_distribution(cdpat, attack):
        if probability == 0.0:
            continue
        total += probability * attack_damage(deterministic, outcome)
    return total
