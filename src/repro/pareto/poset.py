"""Partial orders and Pareto minimisation.

The paper works in three ordered domains:

* the **attribute-pair domain** ``(R²≥0, ⊑)`` with
  ``(c, d) ⊑ (c', d')  iff  c ≤ c' and d ≥ d'`` — lower cost, higher damage
  is better (Section IV.A);
* the **deterministic attribute-triple domain** ``DTrip = R≥0 × R≥0 × B``
  ordered by ``(c, d, b) ⊑ (c', d', b') iff c ≤ c', d ≥ d', b ≥ b'``
  (Section VI);
* the **probabilistic attribute-triple domain**
  ``PTrip = R≥0 × R≥0 × [0, 1]`` with the same componentwise order
  (Section IX).

This module provides the orders and the ε-tolerant Pareto filters, the
paper's ``min_⪯ X = {x ∈ X | ∀x'. x' ⊀ x}``.  The cost-budget part of
``min_U`` is applied by the solvers themselves, which prune over-budget
candidates as they combine them.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Sequence, Tuple, TypeVar

__all__ = [
    "dominates_pair",
    "dominates_triple",
    "strictly_dominates_pair",
    "strictly_dominates_triple",
    "pareto_minimal_pairs",
    "pareto_minimal_triples",
    "is_antichain_pairs",
    "merge_pair_sets",
]

T = TypeVar("T")

CostDamage = Tuple[float, float]
Triple = Tuple[float, float, float]

#: Tolerance for floating-point comparisons throughout the Pareto machinery.
#: The paper works with exact rationals conceptually; a small symmetric
#: tolerance keeps the implementation robust against accumulation error.
EPSILON = 1e-9


def _leq(a: float, b: float) -> bool:
    """Return ``a ≤ b`` up to :data:`EPSILON`.

    All three tolerant comparisons are computed on the *difference* ``a - b``:
    floating-point subtraction of nearby values is exact (Sterbenz) or
    accurate to an ulp of the tiny result, whereas the ``a <= b + EPSILON``
    form is only accurate to an ulp of ``b`` — orders of magnitude coarser
    than ε — which makes ``_leq``/``_eq`` disagree on boundary points and
    admits pairs that strictly dominate each other.
    """
    return a - b <= EPSILON


def _geq(a: float, b: float) -> bool:
    """Return ``a ≥ b`` up to :data:`EPSILON` (see :func:`_leq`)."""
    return b - a <= EPSILON


def _eq(a: float, b: float) -> bool:
    """Return ``a ≈ b`` up to :data:`EPSILON` (see :func:`_leq`)."""
    return abs(a - b) <= EPSILON


def dominates_pair(left: CostDamage, right: CostDamage) -> bool:
    """Return ``left ⊑ right`` in the attribute-pair order (weak domination).

    ``(c, d) ⊑ (c', d')`` iff ``c ≤ c'`` and ``d ≥ d'``: ``left`` is at most
    as expensive and at least as damaging.
    """
    return _leq(left[0], right[0]) and _geq(left[1], right[1])


def strictly_dominates_pair(left: CostDamage, right: CostDamage) -> bool:
    """Return ``left ⊏ right``: weak domination that is not equality."""
    return dominates_pair(left, right) and not (
        _eq(left[0], right[0]) and _eq(left[1], right[1])
    )


def dominates_triple(left: Triple, right: Triple) -> bool:
    """Return ``left ⊑ right`` in the DTrip/PTrip order.

    ``(c, d, p) ⊑ (c', d', p')`` iff ``c ≤ c'``, ``d ≥ d'`` and ``p ≥ p'``.
    The third component is the activation bit (deterministic) or activation
    probability (probabilistic) of the current node: an attack with greater
    activation "potential" must be kept even if it costs more, because it may
    unlock damage higher up in the tree (Example 4).
    """
    return (
        _leq(left[0], right[0])
        and _geq(left[1], right[1])
        and _geq(left[2], right[2])
    )


def strictly_dominates_triple(left: Triple, right: Triple) -> bool:
    """Return ``left ⊏ right`` in the DTrip/PTrip order."""
    return dominates_triple(left, right) and not (
        _eq(left[0], right[0])
        and _eq(left[1], right[1])
        and _eq(left[2], right[2])
    )


def pareto_minimal_pairs(
    items: Iterable[T],
    key: Callable[[T], CostDamage],
) -> List[T]:
    """Return the Pareto-minimal items under the attribute-pair order.

    Implements the paper's ``min X = {x ∈ X | ∀x' ∈ X. x' ⊄ x}`` with the
    :data:`EPSILON`-tolerant strict order: an item is dropped exactly when
    *some input item* strictly dominates it.  Quantifying over all inputs
    (rather than over previously kept items) matters because ε-domination is
    not transitive: a chain of points each within tolerance of the next can
    otherwise leave a dominated point on the "front".

    Among surviving items whose values are ε-equal in both coordinates a
    single representative is kept, matching the paper's treatment of the
    front as a set of attribute values.  The result is sorted by
    (cost, damage) and any two kept values differ by more than ε in both
    coordinates, so the front is a strictly separated antichain.

    The sweep sorts once; dominators with cost beyond ε of the candidate are
    summarised by a monotone prefix maximum, and only the few points *within*
    ε of the candidate's cost are checked pairwise — ``O(k log k + k·w)``
    where ``w`` is the size of that ε-cost window (``w ≪ k`` in practice).
    """
    indexed = []
    for position, item in enumerate(items):
        cost, damage = key(item)
        indexed.append((cost, damage, position, item))
    if not indexed:
        return []
    indexed.sort(key=lambda row: (row[0], row[1], row[2]))
    n = len(indexed)
    result: List[T] = []
    last_kept: CostDamage = (-math.inf, -math.inf)
    have_kept = False
    # ``behind`` consumes points strictly cheaper by more than ε (they
    # dominate anything with at most their damage + ε); points between
    # ``behind`` and ``ahead`` are within ε of the candidate's cost and are
    # checked with the exact pairwise predicate so the filter agrees with
    # :func:`strictly_dominates_pair` bit-for-bit.  Both windows advance
    # monotonically because costs are processed in sorted order.
    ahead = behind = 0
    max_damage_far = -math.inf
    for i in range(n):
        cost, damage, _position, item = indexed[i]
        while ahead < n and indexed[ahead][0] - cost <= EPSILON:
            ahead += 1
        while behind < n and cost - indexed[behind][0] > EPSILON:
            if indexed[behind][1] > max_damage_far:
                max_damage_far = indexed[behind][1]
            behind += 1
        if damage - max_damage_far <= EPSILON:
            continue  # strictly cheaper input with at least this damage
        value = (cost, damage)
        if any(
            strictly_dominates_pair((indexed[j][0], indexed[j][1]), value)
            for j in range(behind, ahead)
        ):
            continue  # dominated from within the ε-cost window
        if have_kept and _eq(cost, last_kept[0]) and _eq(damage, last_kept[1]):
            continue  # duplicate attribute value (up to tolerance)
        result.append(item)
        last_kept = value
        have_kept = True
    return result


def pareto_minimal_triples(
    items: Iterable[T],
    key: Callable[[T], Triple],
) -> List[T]:
    """Return the Pareto-minimal items under the DTrip/PTrip order.

    As with :func:`pareto_minimal_pairs`, an item is dropped exactly when
    some *input* item strictly ε-dominates it (the paper's ``min``), and a
    single representative is kept among ε-equal survivors.

    Every candidate is checked against every row sorted before the end of
    its ε-cost window, so the cost is quadratic in the number of cheaper
    rows.  It serves only the node-level fronts
    (:func:`repro.core.bottom_up.node_pareto_front` and its probabilistic
    twin, the paper's ``C_U(v)``); the answers (fronts, DgC, CgD) drop the
    third component and use the sort-and-sweep :func:`pareto_minimal_pairs`.
    """
    indexed = [(key(item), item) for item in items]
    # Sort by cost ascending, then damage descending, then activation
    # descending so potential dominators precede the points they dominate.
    indexed.sort(key=lambda pair: (pair[0][0], -pair[0][1], -pair[0][2]))
    values = [value for value, _ in indexed]
    n = len(values)
    kept_values: List[Triple] = []
    result: List[T] = []
    for i, (value, item) in enumerate(indexed):
        dominated = False
        for j in range(n):
            if values[j][0] - value[0] > EPSILON:
                break  # sorted by cost: no later point can dominate
            if j != i and strictly_dominates_triple(values[j], value):
                dominated = True
                break
        if dominated:
            continue
        duplicate = False
        for kept in reversed(kept_values):
            if value[0] - kept[0] > EPSILON:
                break
            if _eq(kept[0], value[0]) and _eq(kept[1], value[1]) and _eq(kept[2], value[2]):
                duplicate = True
                break
        if duplicate:
            continue
        kept_values.append(value)
        result.append(item)
    return result


def is_antichain_pairs(values: Sequence[CostDamage]) -> bool:
    """Return ``True`` when no value strictly dominates another.

    Used by tests and by :class:`repro.pareto.front.ParetoFront` validation.
    """
    for i, left in enumerate(values):
        for j, right in enumerate(values):
            if i != j and strictly_dominates_pair(left, right):
                return False
    return True


def merge_pair_sets(*sets: Iterable[CostDamage]) -> List[CostDamage]:
    """Merge several cost-damage point sets into one Pareto-minimal set."""
    combined: List[CostDamage] = []
    for group in sets:
        combined.extend(group)
    return pareto_minimal_pairs(combined, key=lambda value: value)
