"""Classic single-metric attack-tree analyses.

The related-work section of the paper situates cost-damage analysis among
established single-metric AT analyses: minimal attacks (cut sets), the
minimal cost of a *successful* attack, the probability that the top event is
reached, and so on.  A practical library needs those too — both for their
own sake and because the case-study discussions compare against them (e.g.
"only A2 would have been found by a minimal attack analysis", Section X.B).

All functions here are exact.  For treelike ATs they run bottom-up in linear
or near-linear time; for DAG-like ATs the cost/probability functions fall
back to the ILP substrate or exact enumeration where necessary, with the
same Table I-style dispatch as the cost-damage solvers.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..milp.highs import HighsSolver
from ..milp.model import ConstraintSense, LinearExpression
from ..milp.solution import SolveStatus
from .attributes import CostDamageAT, CostDamageProbAT
from .node import NodeType
from .tree import AttackTree

__all__ = [
    "minimal_attacks",
    "is_minimal_attack",
    "min_cost_of_successful_attack",
    "max_probability_of_success",
    "success_probability_all_attempted",
    "count_successful_attacks",
]


def minimal_attacks(tree: AttackTree, max_count: Optional[int] = None) -> List[FrozenSet[str]]:
    """Enumerate the minimal successful attacks (minimal cut sets).

    A successful attack is minimal when no proper subset is still successful.
    For treelike ATs the standard bottom-up product/union construction is
    used; for DAG-like ATs the same recursion runs on the DAG followed by a
    minimality filter (shared BASs can make intermediate sets non-minimal).

    Parameters
    ----------
    tree:
        The attack tree.
    max_count:
        Optional safety cap; enumeration stops with a ``ValueError`` when the
        number of minimal attacks exceeds it (their number can be exponential).
    """
    suites: Dict[str, List[FrozenSet[str]]] = {}
    for name in tree.node_names:  # children before parents
        node = tree.node(name)
        if node.is_bas:
            suites[name] = [frozenset({name})]
        elif node.type is NodeType.OR:
            merged: List[FrozenSet[str]] = []
            for child in node.children:
                merged.extend(suites[child])
            suites[name] = _minimal_sets(merged)
        else:  # AND
            combined = [frozenset()]
            for child in node.children:
                combined = [
                    existing | addition
                    for existing in combined
                    for addition in suites[child]
                ]
                combined = _minimal_sets(combined)
                if max_count is not None and len(combined) > max_count:
                    raise ValueError(
                        f"more than {max_count} minimal attacks at node {name!r}"
                    )
            suites[name] = combined
        if max_count is not None and len(suites[name]) > max_count:
            raise ValueError(f"more than {max_count} minimal attacks at node {name!r}")
    return sorted(suites[tree.root], key=lambda attack: (len(attack), sorted(attack)))


def _minimal_sets(sets: List[FrozenSet[str]]) -> List[FrozenSet[str]]:
    """Drop supersets (and duplicates) from a list of BAS sets."""
    unique = sorted(set(sets), key=len)
    result: List[FrozenSet[str]] = []
    for candidate in unique:
        if not any(kept <= candidate for kept in result):
            result.append(candidate)
    return result


def is_minimal_attack(tree: AttackTree, attack: FrozenSet[str]) -> bool:
    """Return ``True`` when ``attack`` is successful and no proper subset is."""
    if not tree.is_successful(attack):
        return False
    return all(
        not tree.is_successful(attack - {bas})
        for bas in attack
    )


def min_cost_of_successful_attack(
    cdat: CostDamageAT | CostDamageProbAT,
) -> Tuple[Optional[float], Optional[FrozenSet[str]]]:
    """The classic "min cost" metric: cheapest attack reaching the root.

    Uses a single-objective ILP over the Theorem 6 constraint system with the
    extra constraint ``y_root = 1``; this works uniformly for treelike and
    DAG-like ATs.  Returns ``(None, None)`` if the root is unreachable (which
    cannot happen for well-formed ATs, but guards against degenerate models).
    """
    from ..core.bilp import build_structure_program, cost_objective

    deterministic = cdat.deterministic() if isinstance(cdat, CostDamageProbAT) else cdat
    program = build_structure_program(deterministic, name="min-cost-success")
    program.add_constraint(
        LinearExpression({f"y:{deterministic.tree.root}": 1.0}),
        ConstraintSense.GREATER_EQUAL,
        1.0,
        name="root-reached",
    )
    solution = HighsSolver().solve(program, cost_objective(deterministic))
    if solution.status is not SolveStatus.OPTIMAL:
        return None, None
    attack = frozenset(
        bas
        for bas in deterministic.tree.basic_attack_steps
        if solution.value(f"y:{bas}") > 0.5
    )
    # Reported cost is recomputed exactly from the witness.
    cost = sum(deterministic.cost[bas] for bas in attack)
    return cost, attack


def success_probability_all_attempted(cdpat: CostDamageProbAT) -> float:
    """Probability that the root is reached when *every* BAS is attempted.

    For treelike ATs this is the classic fault-tree-style bottom-up
    evaluation; for DAG-like ATs the exact value is computed by enumerating
    actualizations (exponential — intended for the case-study sizes).
    """
    from ..probability.actualization import reach_probabilities

    full_attack = frozenset(cdpat.tree.basic_attack_steps)
    return reach_probabilities(cdpat, full_attack)[cdpat.tree.root]


def max_probability_of_success(
    cdpat: CostDamageProbAT, budget: float = math.inf
) -> Tuple[float, Optional[FrozenSet[str]]]:
    """The largest root-reaching probability achievable within a cost budget.

    Without a budget this equals :func:`success_probability_all_attempted`
    (attempting more BASs never hurts).  With a budget, for treelike ATs the
    probabilistic bottom-up machinery is reused with the node's own damage
    ignored and the root's reach probability as the objective, by running the
    standard solver on a copy whose only damage is 1 on the root.
    """
    tree = cdpat.tree
    if math.isinf(budget):
        return success_probability_all_attempted(cdpat), frozenset(tree.basic_attack_steps)
    probability_model = CostDamageProbAT(
        tree,
        dict(cdpat.cost),
        {tree.root: 1.0},
        dict(cdpat.probability),
    )
    if tree.is_treelike:
        from ..core.bottom_up_prob import max_expected_damage_given_cost_treelike

        value, witness = max_expected_damage_given_cost_treelike(probability_model, budget)
        return value, witness
    from ..core.enumerative import enumerate_max_expected_damage_given_cost

    return enumerate_max_expected_damage_given_cost(probability_model, budget)


def count_successful_attacks(tree: AttackTree, max_bas: int = 20) -> int:
    """Count attacks that reach the root (exact, exponential enumeration)."""
    bas = sorted(tree.basic_attack_steps)
    if len(bas) > max_bas:
        raise ValueError(
            f"counting successful attacks enumerates 2^{len(bas)} sets; "
            f"limit is 2^{max_bas}"
        )
    count = 0
    for size in range(len(bas) + 1):
        for combo in itertools.combinations(bas, size):
            if tree.is_successful(frozenset(combo)):
                count += 1
    return count
