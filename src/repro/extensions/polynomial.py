"""Exact probabilistic DAG analysis via multilinear reach polynomials.

The paper's conclusion sketches a possible attack on its open problem
(probabilistic analysis of DAG-like ATs): "use a bottom-up approach, but in
a polynomial ring with formal variables for nodes that occur multiple times,
[…] to keep track of which nodes occur twice, and tweak addition to prevent
double counting."  This module implements that idea.

Every BAS ``v`` gets a formal indicator variable ``x_v``.  The *reach
polynomial* of a node is the multilinear polynomial (over those indicators,
with the idempotence rule ``x_v² = x_v``) that equals the node's structure
function.  It is computed bottom-up on the DAG:

* BAS:  ``x_v``;
* AND:  product of the children's polynomials;
* OR:   ``1 − Π (1 − child)``;

with multilinear reduction applied after every product.  Because the BAS
success indicators are independent Bernoulli variables, substituting
``x_v ↦ p(v)·[v ∈ attack]`` into the multilinear polynomial yields the exact
reach probability ``PS(x, v)`` — *also on DAGs*, where the plain numeric
recursion of Section IX is unsound.  The price is the polynomial size, which
is worst-case exponential in the number of shared BASs below the node but is
small for the sharing patterns of realistic models (the data-server AT's
largest reach polynomial has a handful of monomials).

On top of the polynomials the module offers exact expected damage and an
exact CEDPF solver for DAG-like cdp-ATs whose per-attack evaluation is
polynomial-sized instead of the ``2^|x|`` actualization enumeration of
:func:`repro.probability.actualization.expected_damage`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional

from ..attacktree.attributes import CostDamageProbAT
from ..attacktree.node import NodeType
from ..attacktree.tree import AttackTree
from ..core.semantics import all_attacks, attack_cost, normalize_attack
from ..pareto.front import ParetoFront, ParetoPoint

__all__ = [
    "MultilinearPolynomial",
    "reach_polynomials",
    "expected_damage_polynomial",
    "pareto_front_probabilistic_polynomial",
]


class MultilinearPolynomial:
    """A multilinear polynomial over Boolean indicator variables.

    Stored as a mapping ``monomial -> coefficient`` where a monomial is a
    frozenset of variable names (the empty frozenset is the constant term).
    Multiplication applies the idempotence rule ``x² = x`` by taking unions
    of monomials, which is exactly what makes the representation correct for
    Boolean indicators.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[FrozenSet[str], float]] = None) -> None:
        self.terms: Dict[FrozenSet[str], float] = {}
        if terms:
            for monomial, coefficient in terms.items():
                if coefficient != 0.0:
                    self.terms[frozenset(monomial)] = float(coefficient)

    # -- constructors ---------------------------------------------------- #
    @classmethod
    def constant(cls, value: float) -> "MultilinearPolynomial":
        """The constant polynomial ``value``."""
        return cls({frozenset(): value} if value else {})

    @classmethod
    def variable(cls, name: str) -> "MultilinearPolynomial":
        """The single-variable polynomial ``x_name``."""
        return cls({frozenset({name}): 1.0})

    # -- ring operations --------------------------------------------------- #
    def __add__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        result = dict(self.terms)
        for monomial, coefficient in other.terms.items():
            result[monomial] = result.get(monomial, 0.0) + coefficient
        return MultilinearPolynomial(result)

    def __sub__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        result = dict(self.terms)
        for monomial, coefficient in other.terms.items():
            result[monomial] = result.get(monomial, 0.0) - coefficient
        return MultilinearPolynomial(result)

    def __mul__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        result: Dict[FrozenSet[str], float] = {}
        for left_monomial, left_coefficient in self.terms.items():
            for right_monomial, right_coefficient in other.terms.items():
                monomial = left_monomial | right_monomial  # idempotence: x² = x
                result[monomial] = (
                    result.get(monomial, 0.0) + left_coefficient * right_coefficient
                )
        return MultilinearPolynomial(result)

    def complement(self) -> "MultilinearPolynomial":
        """Return ``1 − self`` (the polynomial of the negated event)."""
        return MultilinearPolynomial.constant(1.0) - self

    # -- queries --------------------------------------------------------- #
    def evaluate(self, assignment: Mapping[str, float]) -> float:
        """Evaluate at an assignment of variable values (missing ⇒ 0)."""
        total = 0.0
        for monomial, coefficient in self.terms.items():
            product = coefficient
            for variable in monomial:
                product *= assignment.get(variable, 0.0)
                if product == 0.0:
                    break
            total += product
        return total

    def variables(self) -> FrozenSet[str]:
        """All variables appearing in the polynomial."""
        return frozenset(v for monomial in self.terms for v in monomial)

    def monomial_count(self) -> int:
        """Number of monomials (a size measure used in tests and reports)."""
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultilinearPolynomial):
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        return all(
            abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) <= 1e-12 for k in keys
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key in hot paths
        return hash(frozenset((k, round(v, 12)) for k, v in self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "MultilinearPolynomial(0)"
        parts = []
        for monomial in sorted(self.terms, key=lambda m: (len(m), sorted(m))):
            coefficient = self.terms[monomial]
            if monomial:
                parts.append(f"{coefficient:g}·{'·'.join(sorted(monomial))}")
            else:
                parts.append(f"{coefficient:g}")
        return "MultilinearPolynomial(" + " + ".join(parts) + ")"


def reach_polynomials(
    tree: AttackTree, max_monomials: int = 200_000
) -> Dict[str, MultilinearPolynomial]:
    """Compute the reach polynomial of every node, bottom-up on the DAG.

    Parameters
    ----------
    tree:
        Any attack tree (treelike or DAG-like).
    max_monomials:
        Safety valve on the size of any intermediate polynomial; exceeding it
        raises ``ValueError`` (the representation is worst-case exponential).
    """
    polynomials: Dict[str, MultilinearPolynomial] = {}
    for name in tree.node_names:  # children before parents
        node = tree.node(name)
        if node.is_bas:
            polynomials[name] = MultilinearPolynomial.variable(name)
        elif node.type is NodeType.AND:
            product = MultilinearPolynomial.constant(1.0)
            for child in node.children:
                product = product * polynomials[child]
            polynomials[name] = product
        else:  # OR: 1 − Π (1 − child)
            failure = MultilinearPolynomial.constant(1.0)
            for child in node.children:
                failure = failure * polynomials[child].complement()
            polynomials[name] = failure.complement()
        if polynomials[name].monomial_count() > max_monomials:
            raise ValueError(
                f"reach polynomial of node {name!r} exceeds {max_monomials} monomials; "
                "the sharing structure of this DAG is too dense for the "
                "polynomial method"
            )
    return polynomials


def expected_damage_polynomial(
    cdpat: CostDamageProbAT,
    attack: Iterable[str],
    polynomials: Optional[Dict[str, MultilinearPolynomial]] = None,
) -> float:
    """Exact expected damage of an attack, via reach polynomials.

    Correct for arbitrary DAG-like cdp-ATs: each node's reach polynomial is
    evaluated at ``x_v = p(v)`` for attempted BASs and ``0`` otherwise, which
    yields ``PS(x, v)`` exactly because the polynomial is multilinear and the
    BAS successes are independent.
    """
    active = normalize_attack(cdpat, attack)
    if polynomials is None:
        polynomials = reach_polynomials(cdpat.tree)
    assignment = {bas: cdpat.probability[bas] for bas in active}
    total = 0.0
    for node in cdpat.tree.node_names:
        damage = cdpat.damage[node]
        if damage:
            total += damage * polynomials[node].evaluate(assignment)
    return total


def pareto_front_probabilistic_polynomial(
    cdpat: CostDamageProbAT, max_bas: int = 20
) -> ParetoFront:
    """Exact CEDPF for an arbitrary (DAG-like) cdp-AT via reach polynomials.

    Still enumerates the ``2^|B|`` attacks (the front itself can be that
    large, Theorem 5), but each attack is evaluated against the precomputed
    polynomials instead of enumerating its ``2^|x|`` actualizations, which is
    dramatically faster than per-attack
    :func:`repro.probability.actualization.expected_damage` on models with
    more than a dozen BASs.
    """
    bas_count = len(cdpat.tree.basic_attack_steps)
    if bas_count > max_bas:
        raise ValueError(
            f"CEDPF enumeration over 2^{bas_count} attacks exceeds the 2^{max_bas} limit"
        )
    polynomials = reach_polynomials(cdpat.tree)
    points = []
    for attack in all_attacks(cdpat):
        cost = attack_cost(cdpat, attack)
        damage = expected_damage_polynomial(cdpat, attack, polynomials)
        points.append(
            ParetoPoint(cost=cost, damage=damage, attack=attack,
                        reaches_root=cdpat.tree.is_successful(attack))
        )
    return ParetoFront(points)
