"""The cost-damage Pareto front as a first-class object.

A :class:`ParetoFront` is the answer to the CDPF / CEDPF problems: the set of
non-dominated ``(cost, damage)`` points, each optionally annotated with a
witness attack (the set of activated BASs).  The class offers the
single-objective queries of Equations (1) and (2) of the paper —
"most damage given a cost budget" and "least cost given a damage threshold" —
as well as comparison helpers used extensively by the test-suite to check
that independent solvers agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Iterator, List, Optional, Tuple

from .poset import (
    EPSILON,
    is_antichain_pairs,
    pareto_minimal_pairs,
)

__all__ = ["ParetoPoint", "ParetoFront"]


@dataclass(frozen=True, order=True)
class ParetoPoint:
    """One non-dominated point of a cost-damage Pareto front.

    Attributes
    ----------
    cost:
        Total attack cost ``ĉ(x)``.
    damage:
        Total (expected) damage ``d̂(x)`` or ``d̂_E(x)``.
    attack:
        A witness attack achieving this point, as a frozenset of BAS names;
        ``None`` when the producing algorithm only tracked values (e.g. the
        plain BILP solution before witness extraction).
    reaches_root:
        Whether the witness attack reaches the root node ("top" column of
        Fig. 6); ``None`` when unknown.
    """

    cost: float
    damage: float
    attack: Optional[FrozenSet[str]] = field(default=None, compare=False)
    reaches_root: Optional[bool] = field(default=None, compare=False)

    @property
    def value(self) -> Tuple[float, float]:
        """The bare ``(cost, damage)`` pair."""
        return (self.cost, self.damage)

    def __str__(self) -> str:
        witness = "" if self.attack is None else f" via {{{', '.join(sorted(self.attack))}}}"
        return f"(cost={self.cost:g}, damage={self.damage:g}){witness}"


class ParetoFront:
    """An immutable, sorted cost-damage Pareto front.

    Construction filters out dominated and duplicate points, so any iterable
    of candidate points can be passed; what is stored is always a strict
    antichain sorted by increasing cost (and therefore increasing damage).
    """

    __slots__ = ("_points",)

    def __init__(self, points: Iterable[ParetoPoint]):
        minimal = pareto_minimal_pairs(list(points), key=lambda p: (p.cost, p.damage))
        self._points: Tuple[ParetoPoint, ...] = tuple(
            sorted(minimal, key=lambda p: (p.cost, p.damage))
        )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_values(cls, values: Iterable[Tuple[float, float]]) -> "ParetoFront":
        """Build a front from bare ``(cost, damage)`` pairs."""
        return cls(ParetoPoint(cost=c, damage=d) for c, d in values)

    @classmethod
    def from_attacks(
        cls,
        evaluated: Iterable[Tuple[FrozenSet[str], float, float]],
        reaches_root: Optional[dict] = None,
    ) -> "ParetoFront":
        """Build a front from ``(attack, cost, damage)`` triples."""
        points = []
        for attack, cost, damage in evaluated:
            reached = None if reaches_root is None else reaches_root.get(attack)
            points.append(
                ParetoPoint(cost=cost, damage=damage, attack=frozenset(attack),
                            reaches_root=reached)
            )
        return cls(points)

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[ParetoPoint]:
        return iter(self._points)

    def __getitem__(self, index: int) -> ParetoPoint:
        return self._points[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParetoFront):
            return NotImplemented
        return self.values_equal(other)

    def __hash__(self) -> int:
        # Equality is tolerant (``values_equal``), so the point count is the
        # only part of a front that equal fronts are sure to share.
        return hash(len(self._points))

    def __repr__(self) -> str:
        inner = ", ".join(f"({p.cost:g}, {p.damage:g})" for p in self._points)
        return f"ParetoFront([{inner}])"

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def points(self) -> Tuple[ParetoPoint, ...]:
        """The points of the front, sorted by increasing cost."""
        return self._points

    def values(self) -> List[Tuple[float, float]]:
        """The bare ``(cost, damage)`` pairs, sorted by increasing cost."""
        return [p.value for p in self._points]

    def costs(self) -> List[float]:
        """Cost coordinates, sorted increasingly."""
        return [p.cost for p in self._points]

    def damages(self) -> List[float]:
        """Damage coordinates, sorted increasingly."""
        return [p.damage for p in self._points]

    def max_damage_given_cost(self, budget: float) -> Optional[float]:
        """Equation (1): the largest damage achievable with cost ≤ ``budget``.

        Returns ``None`` when no point of the front is affordable (this can
        only happen for fronts that exclude the empty attack).
        """
        best: Optional[float] = None
        for point in self._points:
            if point.cost <= budget + EPSILON:
                best = point.damage if best is None else max(best, point.damage)
        return best

    def min_cost_given_damage(self, threshold: float) -> Optional[float]:
        """Equation (2): the least cost achieving damage ≥ ``threshold``.

        Returns ``None`` when the threshold exceeds the maximum achievable
        damage.
        """
        best: Optional[float] = None
        for point in self._points:
            if point.damage + EPSILON >= threshold:
                best = point.cost if best is None else min(best, point.cost)
        return best

    def best_attack_given_cost(self, budget: float) -> Optional[ParetoPoint]:
        """Return the most damaging affordable point (with its witness)."""
        affordable = [p for p in self._points if p.cost <= budget + EPSILON]
        if not affordable:
            return None
        return max(affordable, key=lambda p: p.damage)

    def cheapest_attack_given_damage(self, threshold: float) -> Optional[ParetoPoint]:
        """Return the cheapest point achieving the damage threshold."""
        sufficient = [p for p in self._points if p.damage + EPSILON >= threshold]
        if not sufficient:
            return None
        return min(sufficient, key=lambda p: p.cost)

    def dominates_point(self, cost: float, damage: float) -> bool:
        """Return ``True`` if some front point weakly dominates ``(cost, damage)``."""
        return any(
            p.cost <= cost + EPSILON and p.damage + EPSILON >= damage
            for p in self._points
        )

    # ------------------------------------------------------------------ #
    # set-level operations and validation
    # ------------------------------------------------------------------ #
    def merge(self, other: "ParetoFront") -> "ParetoFront":
        """Return the Pareto front of the union of both fronts."""
        return ParetoFront(list(self._points) + list(other.points))

    def restrict_to_budget(self, budget: float) -> "ParetoFront":
        """Return the sub-front of points with cost ≤ ``budget``."""
        return ParetoFront(p for p in self._points if p.cost <= budget + EPSILON)

    def is_consistent(self) -> bool:
        """Check the antichain and strict-sortedness invariants (used by tests).

        Consecutive points must be *strictly* separated by more than
        :data:`EPSILON` in both coordinates — equal-cost or equal-damage
        neighbours mean one of them is redundant or dominated.
        """
        values = self.values()
        if not is_antichain_pairs(values):
            return False
        return all(
            values[i][0] + EPSILON < values[i + 1][0]
            and values[i][1] + EPSILON < values[i + 1][1]
            for i in range(len(values) - 1)
        )

    def values_equal(self, other: "ParetoFront", tolerance: float = 1e-6) -> bool:
        """Compare the (cost, damage) values of two fronts up to a tolerance."""
        mine, theirs = self.values(), other.values()
        if len(mine) != len(theirs):
            return False
        return all(
            math.isclose(a[0], b[0], rel_tol=tolerance, abs_tol=tolerance)
            and math.isclose(a[1], b[1], rel_tol=tolerance, abs_tol=tolerance)
            for a, b in zip(mine, theirs)
        )

    def table(self, header: bool = True) -> str:
        """Render the front as a plain-text table (used by the CLI/reports)."""
        lines = []
        if header:
            lines.append(f"{'cost':>12}  {'damage':>12}  {'top':>4}  attack")
        for point in self._points:
            reached = "-" if point.reaches_root is None else ("y" if point.reaches_root else "n")
            witness = (
                "" if point.attack is None else "{" + ", ".join(sorted(point.attack)) + "}"
            )
            lines.append(f"{point.cost:>12g}  {point.damage:>12g}  {reached:>4}  {witness}")
        return "\n".join(lines)
