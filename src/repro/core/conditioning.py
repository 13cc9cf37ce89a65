"""Exact cost-damage analysis of DAG-like ATs by conditioning on shared BASs.

The paper solves deterministic DAG-like ATs with BILP (Theorem 6) because
shared nodes break the bottom-up recursion (Theorem 4): a shared subtree
would be counted once per parent.  Most DAGs in practice share little,
though, so this module reduces a DAG to a handful of treelike problems:

1. **Unfold** the DAG into a tree by giving every node one copy per
   root-to-node path (a node with several parents gets one copy per parent
   copy).  Without sharing the unfolding is the DAG itself.
2. The **cut set** ``K`` is the set of original BASs that end up with more
   than one copy.  Every descendant of a multi-copy node is itself
   multi-copy, so a multi-copy *gate* has only BASs of ``K`` below it: its
   reach is fixed by ``σ = x ∩ K`` alone.  The damage of multi-copy nodes
   therefore sits on no copy; re-evaluation adds it back.
3. For every ``σ ⊆ K`` run the treelike kernel
   (:func:`repro.core.bottom_up.pareto_front_treelike`) on the unfolding,
   where copies of BASs in ``σ`` cost ``0`` and copies of BASs outside
   ``σ`` are priced above the run's budget, which in turn lies above the
   total cost, so the kernel never activates them but keeps every other
   attack.
4. Map every point back to original BAS names, union it with ``σ``,
   re-evaluate it on the original model and ε-minimise the union.

**Exactness.**  Take any attack ``x`` and ``σ = x ∩ K``.  In the ``σ`` run
the unfolded attack ``x' = (x \\ K) ∪ copies(σ)`` reaches exactly the copies
of the nodes ``x`` reaches, so the run's front holds a point ``y'`` that
costs at most ``ĉ(x) − ĉ(σ)`` and does at least the unfolded damage of
``x'``.  Its mapped-back attack ``y = names(y') ∪ σ`` satisfies
``y ∩ K = σ``, so it reaches the same multi-copy nodes as ``x``; with the
free ``σ`` copies all switched on it reaches a superset of what ``y'``
reaches.  Hence ``ĉ(y) ≤ ĉ(x)`` and ``d̂(y) ≥ d̂(x)``: the union dominates
every attack, and each of its points is a real attack, re-evaluated.

**Cost rule.**  The method runs ``2^|K|`` treelike solves on a tree that can
be larger than the DAG, while BILP pays two MILP solves per front point for
CDPF but only one (DgC) or a few (CgD) for the single-objective problems.
:func:`decline_reason` therefore bounds the work ``2^|K| × U`` (``U`` the
unfolding's node count) by a measured cutoff per problem,
:data:`MAX_WORK`.  Both factors are read from path counts, without building
the unfolding, so heavy sharing and nested shared gates (whose unfolding
doubles per level) are declined alike.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..attacktree.attributes import CostDamageAT
from ..attacktree.node import Node
from ..attacktree.tree import AttackTree
from ..pareto.front import ParetoFront, ParetoPoint
from ..pareto.poset import EPSILON
from . import bottom_up
from .problems import Problem
from .semantics import evaluate_attack

__all__ = ["MAX_WORK", "path_counts", "decline_reason", "Conditioning"]

#: Largest work ``2^k × U`` (``k`` shared BASs, ``U`` unfolded nodes) that
#: conditioning takes on, per problem.  Read off BILP/conditioning wall-time
#: ratios on the ``shared-bas`` family, the full profile's deterministic DAGs
#: and diamond chains (CPython 3.11, one x86-64 core); ``benchmarks/DESIGN.md``
#: has the table.  CDPF wins 2.6-190x up to 8448 (``shared-bas`` k = 8) and
#: breaks even at 18944 (k = 9); DgC and CgD, one ILP solve or a few for
#: BILP, break even near 400 and 110.
MAX_WORK: Dict[Problem, int] = {
    Problem.CDPF: 16384,
    Problem.DGC: 384,
    Problem.CGD: 112,
}


def path_counts(tree: AttackTree) -> Dict[str, int]:
    """Number of root-to-node paths per node: its copy count in the unfolding."""
    counts = dict.fromkeys(tree.node_names, 0)
    counts[tree.root] = 1
    for name in tree.topological_order(reverse=True):  # parents first
        for child in tree.node(name).children:
            counts[child] += counts[name]
    return counts


def _cut_set(tree: AttackTree, counts: Dict[str, int]) -> Tuple[str, ...]:
    return tuple(sorted(bas for bas in tree.basic_attack_steps if counts[bas] > 1))


def decline_reason(tree: AttackTree, problem: Problem) -> Optional[str]:
    """Why conditioning should leave ``problem`` on ``tree`` to BILP, or
    ``None`` to accept."""
    counts = path_counts(tree)
    shared = len(_cut_set(tree, counts))
    unfolded = sum(counts.values())
    work = (1 << shared) * unfolded
    if work > MAX_WORK[problem]:
        return (
            f"{shared} shared BASs over a {unfolded}-node unfolding cost "
            f"{work} node visits, above the {problem.value} cutoff of "
            f"{MAX_WORK[problem]}; BILP is faster there"
        )
    return None


class Conditioning:
    """One DAG's unfolding, solved once per subset of its shared BASs.

    Attributes
    ----------
    shared:
        The cut set ``K``: original BASs with more than one copy, sorted.
    runs:
        How many treelike solves this instance has made so far.
    """

    def __init__(self, cdat: CostDamageAT) -> None:
        self.cdat = cdat
        self.runs = 0
        tree = cdat.tree
        counts = path_counts(tree)
        taken = set(counts)
        copies: Dict[str, List[str]] = {}
        for name, count in counts.items():
            if count == 1:
                copies[name] = [name]
                continue
            names = []
            for index in range(count):
                copy = f"{name}#{index}"
                while copy in taken:
                    copy += "#"
                taken.add(copy)
                names.append(copy)
            copies[name] = names
        # Hand out each node's copies to its parents' copies in turn.
        handed = dict.fromkeys(counts, 0)
        nodes: List[Node] = []
        for name in tree.topological_order(reverse=True):
            node = tree.node(name)
            for copy in copies[name]:
                children = []
                for child in node.children:
                    children.append(copies[child][handed[child]])
                    handed[child] += 1
                nodes.append(Node(copy, node.type, tuple(children)))
        self.shared = _cut_set(tree, counts)
        self._tree = AttackTree(nodes, root=tree.root)
        self._origin = {
            copy: bas for bas in tree.basic_attack_steps for copy in copies[bas]
        }
        self._copies = {bas: copies[bas] for bas in self.shared}
        self._base_cost = {
            bas: cdat.cost[bas]
            for bas in tree.basic_attack_steps
            if counts[bas] == 1
        }
        self._damage = {
            name: cdat.damage[name] for name, count in counts.items() if count == 1
        }
        # Every attack without barred copies costs at most the total.  The
        # run budget sits well clear of it, since the kernel adds costs in
        # its own order and can land ulps above the fsum, and a single
        # barred copy is dearer than the budget.
        self._budget = 2.0 * math.fsum(cdat.cost.values()) + 1.0
        self._barred = 2.0 * self._budget

    def _subsets(self) -> List[Tuple[FrozenSet[str], float]]:
        """Every ``σ ⊆ K`` with its cost, in a fixed order (bit ``i`` of the
        enumeration index selects ``K[i]``)."""
        subsets = []
        for mask in range(1 << len(self.shared)):
            chosen = [bas for i, bas in enumerate(self.shared) if mask >> i & 1]
            cost = sum(self.cdat.cost[bas] for bas in chosen)
            subsets.append((frozenset(chosen), cost))
        return subsets

    def _conditioned(self, sigma: FrozenSet[str]) -> CostDamageAT:
        """The unfolding with ``σ``'s copies free and the rest of ``K`` barred."""
        cost = dict(self._base_cost)
        for bas, names in self._copies.items():
            price = 0.0 if bas in sigma else self._barred
            for copy in names:
                cost[copy] = price
        return CostDamageAT(self._tree, cost, self._damage)

    def _map_back(self, attack: FrozenSet[str], sigma: FrozenSet[str]) -> FrozenSet[str]:
        origin = self._origin
        return frozenset(origin[copy] for copy in attack) | sigma

    def pareto_front(self) -> ParetoFront:
        """CDPF: the union of the conditioned fronts, re-evaluated."""
        points = []
        for sigma, _ in self._subsets():
            self.runs += 1
            front = bottom_up.pareto_front_treelike(
                self._conditioned(sigma), budget=self._budget
            )
            for point in front:
                attack = self._map_back(point.attack, sigma)
                cost, damage, reached = evaluate_attack(self.cdat, attack)
                points.append(
                    ParetoPoint(cost=cost, damage=damage, attack=attack,
                                reaches_root=reached)
                )
        return ParetoFront(points)

    def max_damage_given_cost(
        self, budget: float
    ) -> Tuple[float, Optional[FrozenSet[str]]]:
        """DgC: the best conditioned DgC answer over every affordable ``σ``.

        Ties break as in the treelike solver: most damage, then least cost,
        then fewest BASs.
        """
        if budget < 0:
            return 0.0, None
        # σ = ∅ is always affordable, so some run sets ``best``.
        best: Tuple[float, float, int] = (-math.inf, 0.0, 0)
        best_attack: FrozenSet[str] = frozenset()
        for sigma, sigma_cost in self._subsets():
            spare = budget - sigma_cost
            if spare < -EPSILON:
                continue
            self.runs += 1
            _, witness = bottom_up.max_damage_given_cost_treelike(
                self._conditioned(sigma), min(max(spare, 0.0), self._budget)
            )
            attack = self._map_back(witness, sigma)
            cost, damage, _ = evaluate_attack(self.cdat, attack)
            key = (damage, -cost, -len(attack))
            if key > best:
                best, best_attack = key, attack
        return best[0], best_attack

    def min_cost_given_damage(
        self, threshold: float
    ) -> Tuple[Optional[float], Optional[FrozenSet[str]]]:
        """CgD, read off the front (thresholds cannot prune, Section VI.B)."""
        point = self.pareto_front().cheapest_attack_given_damage(threshold)
        if point is None:
            return None, None
        return point.cost, point.attack
