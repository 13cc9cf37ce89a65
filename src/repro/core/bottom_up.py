"""Bottom-up cost-damage analysis for treelike ATs (deterministic setting).

This module implements Section VI of the paper.  The key idea is to perform
Pareto analysis not on ``(cost, damage)`` pairs but in the extended
*deterministic attribute-triple domain*
``DTrip = R≥0 × R≥0 × B``: each partial attack on the sub-tree ``T_v`` is
summarised by ``(ĉ, d̂, S(x, v))``.  The third component records whether the
current node is reached; an attack that is more expensive but reaches the
node must be kept because it may unlock damage at ancestors (Example 4).

For every node ``v`` the algorithm computes the *incomplete Pareto front*
``C^D_U(v)`` by combining the fronts of the children (Equations (4)–(5)) and
discarding triples that exceed the cost budget ``U`` or are dominated in the
``(DTrip, ⊑)`` order.  Theorem 4 states that projecting ``C^D_∞(R_T)`` to
its first two components and minimising yields the CDPF; Theorem 3 reads the
DgC optimum off ``C^D_U(R_T)``.

The paper presents the recursion for binary trees "purely to simplify
notation"; here gates of any arity are folded child by child, which is
equivalent because the combination operators are associative and preserve
the DTrip order (Lemma 3), so intermediate pruning remains sound.

Kernel representation
---------------------
Internally the solver never builds per-candidate objects.  A node's front is
a pair of *quadrants* split on the reached bit — ``N`` (not reached) and
``R`` (reached) — each stored as three parallel lists ``(costs, damages,
masks)`` sorted so that costs and damages are strictly increasing (an exact
2-D Pareto staircase).  Witness attacks are integer bitsets over the node's
local BAS universe (child masks are shifted and OR-ed when folding a gate),
so combining two partial attacks is one integer OR instead of a frozenset
union.  Because the bit of ``R`` strictly beats the bit of ``N``, the DTrip
minimisation reduces to: staircase each quadrant, then drop ``N`` entries
weakly dominated by an ``R`` entry (a single merge scan).  Structurally
identical subtrees (same gate types, decorations and child order) are
detected by an interned fingerprint and computed once.  Masks are
materialised back to ``frozenset[str]`` — and the paper's ε-tolerant
``min_U`` is applied — only at the public API boundary, so exact internal
pruning keeps a superset of every ε-pruned front and remains sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..attacktree.attributes import CostDamageAT
from ..attacktree.node import NodeType
from ..pareto.front import ParetoFront, ParetoPoint
from ..pareto.poset import EPSILON, pareto_minimal_pairs, pareto_minimal_triples

__all__ = [
    "AttributedAttack",
    "node_pareto_front",
    "pareto_front_treelike",
    "max_damage_given_cost_treelike",
    "min_cost_given_damage_treelike",
]

@dataclass(frozen=True)
class AttributedAttack:
    """A partial attack on a sub-tree together with its DTrip attributes.

    Attributes
    ----------
    cost:
        ``ĉ_v(x)`` — cost of the partial attack.
    damage:
        ``d̂_v(x)`` — damage done inside the sub-tree.
    reached:
        ``S(x, v)`` — whether the sub-tree's root is reached.
    attack:
        Witness: the activated BASs of the partial attack.
    """

    cost: float
    damage: float
    reached: bool
    attack: FrozenSet[str]

    @property
    def triple(self) -> Tuple[float, float, float]:
        """The DTrip value ``(c, d, b)`` with the bit as 0.0/1.0."""
        return (self.cost, self.damage, 1.0 if self.reached else 0.0)


# A quadrant front: parallel (costs, damages, masks) lists forming an exact
# 2-D staircase — costs strictly increasing, damages strictly increasing.
_Front = Tuple[List[float], List[float], List[int]]

_EMPTY_FRONT: _Front = ([], [], [])


def _staircase(buffer: List[Tuple[float, float, int]]) -> _Front:
    """Exact 2-D Pareto staircase of ``(cost, damage, mask)`` candidates.

    Sorts by (cost asc, damage desc) — stable, so ties keep generation
    order — and keeps a candidate iff its damage strictly exceeds every
    cheaper-or-equal one.  The result has strictly increasing costs *and*
    damages.
    """
    buffer.sort(key=lambda entry: (entry[0], -entry[1]))
    costs: List[float] = []
    damages: List[float] = []
    masks: List[int] = []
    best = -math.inf
    for cost, damage, mask in buffer:
        if damage > best:
            costs.append(cost)
            damages.append(damage)
            masks.append(mask)
            best = damage
    return costs, damages, masks


def _combine(products: List[Tuple[_Front, _Front, int]], limit: float) -> _Front:
    """Fold quadrant products into one staircase front: costs/damages add,
    masks OR-merge.

    Right-hand costs ascend, so the inner loop stops at the first partner
    that would blow the budget (the paper's early ``min_U`` pruning).
    """
    buffer: List[Tuple[float, float, int]] = []
    append = buffer.append
    for (lc, ld, lm), (rc, rd, rm), shift in products:
        for i in range(len(lc)):
            ci = lc[i]
            di = ld[i]
            mi = lm[i]
            for j in range(len(rc)):
                cost = ci + rc[j]
                if cost > limit:
                    break
                append((cost, di + rd[j], mi | (rm[j] << shift)))
    return _staircase(buffer)


def _filter_not_reached(n_front: _Front, r_front: _Front) -> _Front:
    """Drop ``N`` entries weakly dominated by an ``R`` entry.

    The reached bit of ``R`` strictly beats ``N``'s, so weak (cost, damage)
    domination is already strict DTrip domination.  Both staircases ascend
    in cost and damage, so a single merge scan suffices.
    """
    rc, rd, _ = r_front
    nc, nd, nm = n_front
    if not rc or not nc:
        return n_front
    out_costs: List[float] = []
    out_damages: List[float] = []
    out_masks: List[int] = []
    last = -1  # index of the most damaging R entry with cost <= current N cost
    for i in range(len(nc)):
        cost = nc[i]
        while last + 1 < len(rc) and rc[last + 1] <= cost:
            last += 1
        if last >= 0 and rd[last] >= nd[i]:
            continue
        out_costs.append(cost)
        out_damages.append(nd[i])
        out_masks.append(nm[i])
    return out_costs, out_damages, out_masks


def _mask_to_attack(mask: int, names: Tuple[str, ...]) -> FrozenSet[str]:
    """Materialise a local bitset back to a frozenset of BAS names."""
    selected = []
    while mask:
        low = mask & -mask
        selected.append(names[low.bit_length() - 1])
        mask ^= low
    return frozenset(selected)


class _TripleKernel:
    """Reachability-tracking bottom-up fold over (N, R) quadrant fronts.

    One instance per solver call: the memo caches each structural
    fingerprint's computed quadrants, so decoration-identical subtrees
    (common in generated workloads) are folded once.  Memoised fronts are
    shared read-only; masks live in the subtree-local bit universe, so a hit
    is valid for every occurrence regardless of the actual BAS names.
    """

    def __init__(self, cdat: CostDamageAT, limit: float) -> None:
        self.cdat = cdat
        self.limit = limit
        self.fingerprints: Dict[object, int] = {}
        self.memo: Dict[int, Tuple[_Front, _Front, int]] = {}

    def _intern(self, key: object) -> int:
        return self.fingerprints.setdefault(key, len(self.fingerprints))

    def compute(self, target: str) -> Tuple[_Front, _Front, Tuple[str, ...]]:
        """Return ``(n_front, r_front, bas_names)`` for the target's subtree.

        Iterative post-order (reversed pre-order) so deep chains do not hit
        the interpreter recursion limit.
        """
        tree = self.cdat.tree
        order: List[str] = []
        stack = [target]
        while stack:
            name = stack.pop()
            order.append(name)
            stack.extend(tree.node(name).children)
        # name -> (n_front, r_front, bas_names, fingerprint id)
        done: Dict[str, Tuple[_Front, _Front, Tuple[str, ...], int]] = {}
        for name in reversed(order):
            node = tree.node(name)
            if node.is_bas:
                cost = self.cdat.cost[name]
                damage = self.cdat.damage[name]
                fingerprint = self._intern(("B", cost, damage))
                cached = self.memo.get(fingerprint)
                if cached is None:
                    if cost > self.limit:
                        cached = (([0.0], [0.0], [0]), _EMPTY_FRONT, 1)
                    else:
                        cached = (([0.0], [0.0], [0]), ([cost], [damage], [1]), 1)
                    self.memo[fingerprint] = cached
                done[name] = (cached[0], cached[1], (name,), fingerprint)
                continue
            child_results = [done[child] for child in node.children]
            names: Tuple[str, ...] = ()
            for _, _, child_names, _ in child_results:
                names += child_names
            gate_damage = self.cdat.damage[name]
            fingerprint = self._intern(
                (node.type.value, gate_damage, tuple(r[3] for r in child_results))
            )
            cached = self.memo.get(fingerprint)
            if cached is not None:
                done[name] = (cached[0], cached[1], names, fingerprint)
                continue
            n_front, r_front, _, _ = child_results[0]
            width = len(child_results[0][2])
            for child_n, child_r, child_names, _ in child_results[1:]:
                n_front, r_front = self._fold(
                    n_front, r_front, child_n, child_r, node.type, width
                )
                width += len(child_names)
            if gate_damage != 0.0 and r_front[0]:
                r_front = (
                    r_front[0],
                    [value + gate_damage for value in r_front[1]],
                    r_front[2],
                )
                n_front = _filter_not_reached(n_front, r_front)
            self.memo[fingerprint] = (n_front, r_front, len(names))
            done[name] = (n_front, r_front, names, fingerprint)
        n_front, r_front, names, _ = done[target]
        return n_front, r_front, names

    def _fold(
        self,
        acc_n: _Front,
        acc_r: _Front,
        child_n: _Front,
        child_r: _Front,
        gate_type: NodeType,
        shift: int,
    ) -> Tuple[_Front, _Front]:
        """Fold one child into the running combination (Equations (4)–(5))."""
        if gate_type is NodeType.AND:
            r_products = [(acc_r, child_r, shift)]
            n_products = [
                (acc_n, child_n, shift),
                (acc_r, child_n, shift),
                (acc_n, child_r, shift),
            ]
        else:
            r_products = [
                (acc_r, child_r, shift),
                (acc_r, child_n, shift),
                (acc_n, child_r, shift),
            ]
            n_products = [(acc_n, child_n, shift)]
        r_front = _combine(r_products, self.limit)
        n_front = _combine(n_products, self.limit)
        return _filter_not_reached(n_front, r_front), r_front


class _PairKernel:
    """The ablation kernel: 2-D pruning that ignores the reached bit.

    This reproduces the *incorrect* naive propagation the paper warns about
    (Example 4) and is exposed only for the ablation study.  Each node's
    front is a single staircase of ``(cost, damage, reached, mask)`` rows;
    the reached flag rides along (it decides gate-damage application) but
    takes no part in domination.
    """

    def __init__(self, cdat: CostDamageAT, limit: float) -> None:
        self.cdat = cdat
        self.limit = limit
        self.fingerprints: Dict[object, int] = {}
        self.memo: Dict[int, Tuple[list, int]] = {}

    def _intern(self, key: object) -> int:
        return self.fingerprints.setdefault(key, len(self.fingerprints))

    @staticmethod
    def _staircase(buffer: list) -> list:
        buffer.sort(key=lambda entry: (entry[0], -entry[1]))
        kept = []
        best = -math.inf
        for entry in buffer:
            if entry[1] > best:
                kept.append(entry)
                best = entry[1]
        return kept

    def compute(self, target: str) -> Tuple[list, Tuple[str, ...]]:
        tree = self.cdat.tree
        order: List[str] = []
        stack = [target]
        while stack:
            name = stack.pop()
            order.append(name)
            stack.extend(tree.node(name).children)
        done: Dict[str, Tuple[list, Tuple[str, ...], int]] = {}
        for name in reversed(order):
            node = tree.node(name)
            if node.is_bas:
                cost = self.cdat.cost[name]
                damage = self.cdat.damage[name]
                fingerprint = self._intern(("B", cost, damage))
                cached = self.memo.get(fingerprint)
                if cached is None:
                    front = [(0.0, 0.0, False, 0)]
                    if cost <= self.limit:
                        front = self._staircase(front + [(cost, damage, True, 1)])
                    cached = (front, 1)
                    self.memo[fingerprint] = cached
                done[name] = (cached[0], (name,), fingerprint)
                continue
            child_results = [done[child] for child in node.children]
            names: Tuple[str, ...] = ()
            for _, child_names, _ in child_results:
                names += child_names
            gate_damage = self.cdat.damage[name]
            fingerprint = self._intern(
                (node.type.value, gate_damage, tuple(r[2] for r in child_results))
            )
            cached = self.memo.get(fingerprint)
            if cached is not None:
                done[name] = (cached[0], names, fingerprint)
                continue
            conjunctive = node.type is NodeType.AND
            front = child_results[0][0]
            width = len(child_results[0][1])
            for child_front, child_names, _ in child_results[1:]:
                buffer = []
                for lc, ld, lr, lmask in front:
                    for rc, rd, rr, rmask in child_front:
                        cost = lc + rc
                        if cost > self.limit:
                            break
                        reached = (lr and rr) if conjunctive else (lr or rr)
                        buffer.append(
                            (cost, ld + rd, reached, lmask | (rmask << width))
                        )
                front = self._staircase(buffer)
                width += len(child_names)
            if gate_damage != 0.0:
                front = self._staircase(
                    [
                        (cost, damage + gate_damage if reached else damage, reached, mask)
                        for cost, damage, reached, mask in front
                    ]
                )
            self.memo[fingerprint] = (front, len(names))
            done[name] = (front, names, fingerprint)
        front, names, _ = done[target]
        return front, names


def node_pareto_front(
    cdat: CostDamageAT,
    node: Optional[str] = None,
    budget: float = math.inf,
    track_reachability: bool = True,
) -> List[AttributedAttack]:
    """Compute the incomplete Pareto front ``C^D_U(v)`` of a node.

    Parameters
    ----------
    cdat:
        A treelike cd-AT.
    node:
        The node whose front to return; defaults to the root.
    budget:
        The cost budget ``U``; ``inf`` for the unconstrained CDPF case.
    track_reachability:
        Keep the third (reached) dimension in the Pareto order, as the paper
        requires.  Setting this to ``False`` reproduces the naive two
        dimensional propagation that loses optimal attacks (ablation only).

    Returns
    -------
    list of :class:`AttributedAttack`
        The non-dominated attribute triples (with witness attacks) for the
        requested node.

    Raises
    ------
    ValueError
        If the underlying tree is DAG-like — shared subtrees would be double
        counted by this recursion (Section VII); use the BILP solver instead.
    """
    tree = cdat.tree
    if not tree.is_treelike:
        raise ValueError(
            "the bottom-up method requires a treelike AT; "
            "use repro.core.bilp for DAG-like ATs (Theorem 6)"
        )
    if budget < 0:
        raise ValueError("the cost budget must be non-negative")
    target = node if node is not None else tree.root
    if target not in tree.nodes:
        raise KeyError(f"no node named {target!r} in this attack tree")

    limit = budget + EPSILON
    if track_reachability:
        kernel = _TripleKernel(cdat, limit)
        n_front, r_front, names = kernel.compute(target)
        items = [
            AttributedAttack(
                cost=cost, damage=damage, reached=False,
                attack=_mask_to_attack(mask, names),
            )
            for cost, damage, mask in zip(*n_front)
        ]
        items += [
            AttributedAttack(
                cost=cost, damage=damage, reached=True,
                attack=_mask_to_attack(mask, names),
            )
            for cost, damage, mask in zip(*r_front)
        ]
        # The paper's ε-tolerant min_U is applied once, at the boundary.
        return pareto_minimal_triples(items, key=lambda item: item.triple)

    pair_kernel = _PairKernel(cdat, limit)
    front, names = pair_kernel.compute(target)
    items = [
        AttributedAttack(
            cost=cost, damage=damage, reached=reached,
            attack=_mask_to_attack(mask, names),
        )
        for cost, damage, reached, mask in front
    ]
    return pareto_minimal_pairs(items, key=lambda item: (item.cost, item.damage))


def pareto_front_treelike(
    cdat: CostDamageAT,
    budget: float = math.inf,
    track_reachability: bool = True,
) -> ParetoFront:
    """Solve CDPF for a treelike cd-AT bottom-up (Theorem 4).

    The incomplete front at the root is projected onto ``(cost, damage)``
    and minimised.  With a finite ``budget`` this instead yields the Pareto
    front restricted to affordable attacks, from which DgC can be read off
    (Theorem 3).
    """
    root_front = node_pareto_front(
        cdat,
        cdat.tree.root,
        budget=budget,
        track_reachability=track_reachability,
    )
    points = [
        ParetoPoint(cost=item.cost, damage=item.damage, attack=item.attack,
                    reaches_root=item.reached)
        for item in root_front
    ]
    return ParetoFront(points)


def max_damage_given_cost_treelike(
    cdat: CostDamageAT, budget: float
) -> Tuple[float, Optional[FrozenSet[str]]]:
    """Solve DgC for a treelike cd-AT (Theorem 3).

    Propagates the budget ``U`` through the bottom-up recursion so that
    partial attacks exceeding the budget are discarded early, then returns
    the most damaging affordable triple at the root.  Damage ties are broken
    towards the least cost, then the fewest activated BASs, so the witness
    is never needlessly expensive.
    """
    if budget < 0:
        return 0.0, None
    root_front = node_pareto_front(cdat, cdat.tree.root, budget=budget)
    best = max(
        root_front,
        key=lambda item: (item.damage, -item.cost, -len(item.attack)),
    )
    return best.damage, best.attack


def min_cost_given_damage_treelike(
    cdat: CostDamageAT, threshold: float
) -> Tuple[Optional[float], Optional[FrozenSet[str]]]:
    """Solve CgD for a treelike cd-AT.

    As the paper notes (Section VI.B), the damage threshold cannot be used
    to prune partial attacks — an attack below the threshold at ``v`` may
    still exceed it at an ancestor — so the full Pareto front is computed
    and the answer read off via Equation (2).
    """
    front = pareto_front_treelike(cdat)
    point = front.cheapest_attack_given_damage(threshold)
    if point is None:
        return None, None
    return point.cost, point.attack
