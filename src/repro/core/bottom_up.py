"""Bottom-up cost-damage analysis (deterministic setting), DAGs included.

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

DAG-like ATs
------------
A shared node would be counted once per parent by this recursion
(Section VII).  The paper's conclusion proposes formal variables for nodes
that occur multiple times; here they are *labels*.  Every node with two or
more parents is a label.  Its parents fold it as a zero-cost pseudo-leaf
that carries only its reach bit under that label, so every row holds an
assumption per open label, and rows are pruned within each (label
assignment, reach bit) class.  All its parents meet at its immediate
dominator; there its own front is multiplied in once, each row taking the
shared rows whose reach bit matches the row's label bit, and the label is
summed out.  Every node's front is thus used exactly once.  A fold step
costs up to ``2^w`` class pairs, where the frontier width ``w`` is the most
labels open at once (:func:`label_width`); each gate orders its steps
greedily to keep ``w`` small.  On a treelike AT ``w = 0`` and every gate
folds its children in order, exactly as without labels.

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
weakly dominated by an ``R`` entry (a single merge scan).  The post-order
traversal and the memo of structurally identical subtrees (same gate types,
decorations and child order, detected by an interned fingerprint) are the
:class:`_Kernel` driver, which the probabilistic setting shares.

Masks are materialised back to ``frozenset[str]`` — and the paper's
ε-tolerant ``min`` is applied — only at the public API boundary, so exact
internal pruning keeps a superset of every ε-pruned front and remains
sound.  The answers (CDPF, DgC, CgD) need only the ``(cost, damage)``
projection of the root rows, so they minimise once, in 2-D; only
:func:`node_pareto_front`, the paper's ``C_U(v)``, minimises in the full
DTrip order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Generic, List, Optional, Tuple, TypeVar, Union

from ..attacktree.attributes import CostDamageAT, CostDamageProbAT
from ..attacktree.node import NodeType
from ..attacktree.tree import AttackTree
from ..pareto.front import ParetoFront, ParetoPoint
from ..pareto.poset import EPSILON, pareto_minimal_pairs, pareto_minimal_triples

__all__ = [
    "AttributedAttack",
    "label_width",
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

# A node's DTrip front: its (N, R) quadrants.
_Quadrants = Tuple[_Front, _Front]

_EMPTY_FRONT: _Front = ([], [], [])


def _staircase(buffer: List[Tuple[float, float, int]]) -> _Front:
    """Exact 2-D Pareto staircase of ``(cost, damage, mask)`` candidates.

    Sorts by (cost asc, damage desc) and keeps a candidate iff its damage
    strictly exceeds every cheaper-or-equal one.  The result has strictly
    increasing costs *and* damages.  Of attacks with exactly equal (cost,
    damage) — adjacent after the sort — the one with the fewest BASs is
    the witness (the DgC tie-break), whatever the generation order.
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
        elif damage == best and cost == costs[-1] and _fewer_bas(mask, masks[-1]):
            masks[-1] = mask
    return costs, damages, masks


def _fewer_bas(mask: int, other: int) -> bool:
    """Whether attack ``mask`` has fewer BASs than attack ``other``."""
    return bin(mask).count("1") < bin(other).count("1")


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


def _popcount(bits: int) -> int:
    return bin(bits).count("1")


def _bits(bits: int) -> List[int]:
    """The set bits of ``bits``, each as its own power of two."""
    found = []
    while bits:
        low = bits & -bits
        found.append(low)
        bits ^= low
    return found


def _mask_to_attack(mask: int, names: Tuple[str, ...]) -> FrozenSet[str]:
    """Materialise a local bitset back to a frozenset of BAS names."""
    selected = []
    while mask:
        low = mask & -mask
        selected.append(names[low.bit_length() - 1])
        mask ^= low
    return frozenset(selected)


def _dominators(tree: AttackTree) -> Dict[str, Optional[str]]:
    """The immediate dominator of every node (``None`` for the root).

    In a parents-first order each node's dominator is the meeting point, in
    the dominator tree built so far, of all its parents.
    """
    root = tree.root
    idom: Dict[str, Optional[str]] = {root: None}
    depth = {root: 0}
    for name in tree.topological_order(reverse=True):
        if name == root:
            continue
        parents = tree.parents(name)
        dominator = parents[0]
        for other in parents[1:]:
            while dominator != other:
                if depth[dominator] >= depth[other]:
                    dominator = idom[dominator]
                else:
                    other = idom[other]
        idom[name] = dominator
        depth[name] = depth[dominator] + 1
    return idom


# A plan step: ``(0, child)`` folds a child in; ``(bit, shared)`` closes the
# label ``bit`` by joining the shared node's own front.
_Step = Tuple[int, str]


def _schedule(items: List[Tuple[int, int, str]]) -> Tuple[List[_Step], int, int]:
    """Order one gate's ``(scope, bit, name)`` items; return the steps, the
    widest label set any step holds open, and the labels left open.

    Greedy: take the ready item that keeps the fewest labels open, closes
    first on ties, then child order.  A close is ready once no other pending
    item still carries its label, nested inside a shared front included, so
    ready labels close parents-first.  Without labels this is child order.
    """
    if not any(scope for scope, _, _ in items):
        return [(bit, name) for _, bit, name in items], 0, 0
    # label bit -> pending items whose scope holds it (a close holds its own)
    carriers: Dict[int, int] = {}
    for scope, _, _ in items:
        for label in _bits(scope):
            carriers[label] = carriers.get(label, 0) + 1
    pending = list(items)
    steps: List[_Step] = []
    width = 0
    open_labels = 0
    while pending:
        ready = [item for item in pending if not item[1] or carriers[item[1]] == 1]
        item = min(
            ready,
            key=lambda entry, held=open_labels: (_popcount(held | entry[0]), not entry[1]),
        )
        pending.remove(item)
        scope, bit, name = item
        for label in _bits(scope):
            carriers[label] -= 1
        width = max(width, _popcount(open_labels | scope))
        open_labels = (open_labels | scope) & ~bit
        steps.append((bit, name))
    return steps, width, open_labels


class _Plan:
    """The fold schedule of one subtree: node order, labels and steps.

    Every node with two or more parents is a *label*, bit ``labels[name]``.
    A parent folds a label child as a pseudo-leaf carrying only its reach
    bit; the label's own front joins once, at its immediate dominator,
    where all its parents meet.  ``width`` is the most labels open at once,
    ``w``: a fold step costs up to ``2^w`` class pairs.  A treelike subtree
    has no labels, ``w = 0`` and each gate folds its children in order.
    """

    def __init__(self, tree: AttackTree, target: str) -> None:
        self.labels = {
            name: 1 << index for index, name in enumerate(sorted(tree.shared_nodes()))
        }
        order = tree.topological_order()
        if target != tree.root:
            within = tree.descendants(target)
            order = tuple(name for name in order if name in within) + (target,)
        self.order = order
        self.width = 0
        if not self.labels:
            self.steps = {
                name: [(0, child) for child in tree.node(name).children] for name in order
            }
            return
        idom = _dominators(tree)
        closes: Dict[str, List[str]] = {}
        for name in self.labels:
            closes.setdefault(idom[name], []).append(name)
        self.steps = {}
        scope: Dict[str, int] = {}
        for name in self.order:
            items = [
                (self.labels[child] if child in self.labels else scope[child], 0, child)
                for child in tree.node(name).children
            ]
            items += [
                (scope[shared] | self.labels[shared], self.labels[shared], shared)
                for shared in closes.get(name, ())
            ]
            self.steps[name], width, scope[name] = _schedule(items)
            self.width = max(self.width, width)


def label_width(tree: AttackTree) -> Tuple[int, int]:
    """``(shared nodes, w)``: the labels and the frontier width of the
    labelled bottom-up fold of ``tree``; ``(0, 0)`` on a treelike AT."""
    plan = _Plan(tree, tree.root)
    return len(plan.labels), plan.width


F = TypeVar("F")

# A labelled front: its open labels as a bitset, and per assignment of them
# (the set bits are the labels assumed reached) a front of the setting.
_Labelled = Tuple[int, Dict[int, F]]


def _partners(classes: Dict[int, F], common: int) -> Dict[int, List[Tuple[int, F]]]:
    """Group a front's classes by their assignment of the ``common`` labels."""
    grouped: Dict[int, List[Tuple[int, F]]] = {}
    for key, part in classes.items():
        grouped.setdefault(key & common, []).append((key, part))
    return grouped


class _Kernel(Generic[F]):
    """The bottom-up fold of both settings, over node fronts of type ``F``.

    One instance per solver call.  The driver visits the nodes children
    first along a :class:`_Plan` and memoises each structural
    fingerprint's front — ``("B", *decoration)`` for a BAS, ``(gate type,
    gate damage, step fingerprints)`` for a gate — so decoration-identical
    subtrees (common in generated workloads) are folded once.  Memoised
    fronts are shared read-only; masks live in the subtree-local bit
    universe, so a hit is valid for every occurrence regardless of the
    actual BAS names.

    Fronts are labelled (:data:`_Labelled`): rows combine only when their
    common labels agree, and each label assignment keeps its own front, so
    pruning stays within a (label assignment, reach) class.  A treelike
    model has one class, the empty assignment, and folds exactly as
    without labels.

    A setting supplies :meth:`_decoration` and :meth:`_leaf` (a BAS's
    front), :meth:`_fold` (one child into a gate's running combination)
    and :meth:`_add_gate_damage`; to fold DAGs it also supplies
    :meth:`_pseudo_leaf` and :meth:`_close`.
    """

    #: The message refusing a DAG-like tree, or ``None`` when the setting
    #: folds DAGs with labels.
    dag_error: Optional[str]

    def __init__(
        self, model: Union[CostDamageAT, CostDamageProbAT], limit: float
    ) -> None:
        self.model = model
        self.limit = limit
        self.fingerprints: Dict[object, int] = {}
        self.memo: Dict[int, _Labelled[F]] = {}

    @classmethod
    def run(
        cls,
        model: Union[CostDamageAT, CostDamageProbAT],
        node: Optional[str],
        budget: float,
    ) -> Tuple[F, Tuple[str, ...]]:
        """Validate the arguments and fold ``node``'s subtree (the root when
        ``None``) under the cost budget."""
        tree = model.tree
        if cls.dag_error is not None and not tree.is_treelike:
            raise ValueError(cls.dag_error)
        if budget < 0:
            raise ValueError("the cost budget must be non-negative")
        target = node if node is not None else tree.root
        if target not in tree.nodes:
            raise KeyError(f"no node named {target!r} in this attack tree")
        return cls(model, budget + EPSILON).compute(target)

    def _intern(self, key: object) -> int:
        return self.fingerprints.setdefault(key, len(self.fingerprints))

    def compute(self, target: str) -> Tuple[F, Tuple[str, ...]]:
        """Return the target's front and its subtree's BAS names (mask bit
        ``i`` is ``names[i]``).  Every label below a DAG's root closes by
        the root, so the root's front is its empty-assignment class."""
        tree = self.model.tree
        plan = _Plan(tree, target)
        labels = plan.labels
        # name -> (front, bas_names, fingerprint id)
        done: Dict[str, Tuple[_Labelled[F], Tuple[str, ...], int]] = {}
        for name in plan.order:
            node = tree.node(name)
            if node.is_bas:
                decoration = self._decoration(name)
                fingerprint = self._intern(("B",) + decoration)
                front = self.memo.get(fingerprint)
                if front is None:
                    front = self.memo[fingerprint] = (0, {0: self._leaf(*decoration)})
                done[name] = (front, (name,), fingerprint)
                continue
            items = []
            for bit, step in plan.steps[name]:
                if bit:
                    front, names, fingerprint = done[step]
                    items.append((bit, front, names, self._intern(("C", bit, fingerprint))))
                elif step in labels:
                    label = labels[step]
                    pseudo = self._pseudo_leaf(label)
                    items.append((0, pseudo, (), self._intern(("L", label))))
                else:
                    items.append((0,) + done[step])
            names: Tuple[str, ...] = ()
            for _, _, item_names, _ in items:
                names += item_names
            gate_damage = self.model.damage[name]
            fingerprint = self._intern(
                (node.type.value, gate_damage, tuple(item[3] for item in items))
            )
            front = self.memo.get(fingerprint)
            if front is None:
                conjunctive = node.type is NodeType.AND
                _, front, first_names, _ = items[0]
                width = len(first_names)
                for bit, item_front, item_names, _ in items[1:]:
                    if bit:
                        front = self._close(front, bit, item_front, width)
                    else:
                        front = self._fold_labelled(front, item_front, conjunctive, width)
                    width += len(item_names)
                if gate_damage != 0.0:
                    scope, classes = front
                    front = scope, {
                        key: self._add_gate_damage(part, gate_damage)
                        for key, part in classes.items()
                    }
                self.memo[fingerprint] = front
            done[name] = (front, names, fingerprint)
        (_, classes), names, _ = done[target]
        return classes[0], names

    def _fold_labelled(
        self, acc: _Labelled[F], child: _Labelled[F], conjunctive: bool, shift: int
    ) -> _Labelled[F]:
        """Fold ``child`` in class by class: two classes combine when their
        common labels agree, into the class of the union assignment."""
        acc_scope, acc_classes = acc
        child_scope, child_classes = child
        if not acc_scope | child_scope:
            return 0, {0: self._fold(acc_classes[0], child_classes[0], conjunctive, shift)}
        common = acc_scope & child_scope
        partners = _partners(child_classes, common)
        classes: Dict[int, F] = {}
        for key, part in acc_classes.items():
            for other, child_part in partners.get(key & common, ()):
                classes[key | other] = self._fold(part, child_part, conjunctive, shift)
        return acc_scope | child_scope, classes

    def _decoration(self, name: str) -> tuple:
        raise NotImplementedError

    def _leaf(self, *decoration: float) -> F:
        raise NotImplementedError

    def _fold(self, acc: F, child: F, conjunctive: bool, shift: int) -> F:
        raise NotImplementedError

    def _add_gate_damage(self, front: F, gate_damage: float) -> F:
        raise NotImplementedError

    def _pseudo_leaf(self, bit: int) -> _Labelled[F]:
        """A label child: no cost, no damage, reached iff its label is."""
        raise NotImplementedError

    def _close(
        self, acc: _Labelled[F], bit: int, shared: _Labelled[F], shift: int
    ) -> _Labelled[F]:
        """Join a label's own front at its dominator and sum the label out."""
        raise NotImplementedError


class _TripleKernel(_Kernel[_Quadrants]):
    """The DTrip setting: a node's front is its (N, R) quadrant pair."""

    dag_error = None

    def _decoration(self, name: str) -> Tuple[float, float]:
        return (self.model.cost[name], self.model.damage[name])

    def _leaf(self, cost: float, damage: float) -> _Quadrants:
        if cost > self.limit:
            return ([0.0], [0.0], [0]), _EMPTY_FRONT
        return ([0.0], [0.0], [0]), ([cost], [damage], [1])

    def _fold(
        self, acc: _Quadrants, child: _Quadrants, conjunctive: bool, shift: int
    ) -> _Quadrants:
        """Fold one child into the running combination (Equations (4)–(5))."""
        acc_n, acc_r = acc
        child_n, child_r = child
        if conjunctive:
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

    def _add_gate_damage(self, front: _Quadrants, gate_damage: float) -> _Quadrants:
        """Only reached rows earn the gate's damage; it may now dominate
        ``N`` rows."""
        n_front, r_front = front
        if not r_front[0]:
            return front
        r_front = (r_front[0], [value + gate_damage for value in r_front[1]], r_front[2])
        return _filter_not_reached(n_front, r_front), r_front

    def _pseudo_leaf(self, bit: int) -> _Labelled[_Quadrants]:
        zero: _Front = ([0.0], [0.0], [0])
        return bit, {0: (zero, _EMPTY_FRONT), bit: (_EMPTY_FRONT, zero)}

    def _close(
        self, acc: _Labelled[_Quadrants], bit: int,
        shared: _Labelled[_Quadrants], shift: int,
    ) -> _Labelled[_Quadrants]:
        """Each row takes the shared node's rows whose reach bit matches the
        row's label bit and whose own labels agree; both label values then
        land in one class, minimised together."""
        acc_scope, acc_classes = acc
        shared_scope, shared_classes = shared
        rest = acc_scope & ~bit
        common = rest & shared_scope
        partners = _partners(shared_classes, common)
        products: Dict[int, Tuple[list, list]] = {}
        for key, (acc_n, acc_r) in acc_classes.items():
            reached = 1 if key & bit else 0
            for other, part in partners.get(key & common, ()):
                rows = part[reached]
                if not rows[0]:
                    continue
                n_products, r_products = products.setdefault(
                    (key & ~bit) | other, ([], [])
                )
                n_products.append((acc_n, rows, shift))
                r_products.append((acc_r, rows, shift))
        classes: Dict[int, _Quadrants] = {}
        for key, (n_products, r_products) in products.items():
            r_front = _combine(r_products, self.limit)
            n_front = _filter_not_reached(_combine(n_products, self.limit), r_front)
            classes[key] = n_front, r_front
        return rest | shared_scope, classes


def _root_points(cdat: CostDamageAT, budget: float) -> List[ParetoPoint]:
    """The root rows as (cost, damage) points with witnesses, unminimised."""
    (n_front, r_front), names = _TripleKernel.run(cdat, None, budget)
    return [
        ParetoPoint(cost=cost, damage=damage, attack=_mask_to_attack(mask, names),
                    reaches_root=reached)
        for reached, front in ((False, n_front), (True, r_front))
        for cost, damage, mask in zip(*front)
    ]


def node_pareto_front(
    cdat: CostDamageAT,
    node: Optional[str] = None,
    budget: float = math.inf,
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

    Returns
    -------
    list of :class:`AttributedAttack`
        The non-dominated attribute triples (with witness attacks) for the
        requested node.

    Raises
    ------
    ValueError
        If the underlying tree is DAG-like: below the root, a node's rows
        still depend on the labels of shared nodes outside its subtree.
    """
    if not cdat.tree.is_treelike:
        raise ValueError(
            "node fronts require a treelike AT: on a DAG a node's rows depend "
            "on shared nodes outside its subtree; pareto_front_treelike "
            "answers the root"
        )
    (n_front, r_front), names = _TripleKernel.run(cdat, node, budget)
    items = [
        AttributedAttack(cost=cost, damage=damage, reached=reached,
                         attack=_mask_to_attack(mask, names))
        for reached, front in ((False, n_front), (True, r_front))
        for cost, damage, mask in zip(*front)
    ]
    # The paper's ε-tolerant min_U in the DTrip order, applied once.
    return pareto_minimal_triples(items, key=lambda item: item.triple)


def pareto_front_treelike(
    cdat: CostDamageAT,
    budget: float = math.inf,
) -> ParetoFront:
    """Solve CDPF for a cd-AT bottom-up (Theorem 4), a DAG-like one with
    dominator labels.

    The root rows are projected onto ``(cost, damage)`` and minimised.
    With a finite ``budget`` this instead yields the Pareto front
    restricted to affordable attacks, from which DgC can be read off
    (Theorem 3).
    """
    return ParetoFront(_root_points(cdat, budget))


def max_damage_given_cost_treelike(
    cdat: CostDamageAT, budget: float
) -> Tuple[float, Optional[FrozenSet[str]]]:
    """Solve DgC for a cd-AT bottom-up (Theorem 3), DAGs included.

    Propagates the budget ``U`` through the bottom-up recursion so that
    partial attacks exceeding the budget are discarded early, then returns
    the most damaging affordable point of the root's (cost, damage) front.
    Damage ties are broken towards the least cost, then the fewest
    activated BASs, so the witness is never needlessly expensive.
    """
    if budget < 0:
        return 0.0, None
    points = pareto_minimal_pairs(_root_points(cdat, budget), key=lambda p: p.value)
    best = max(points, key=lambda p: (p.damage, -p.cost, -len(p.attack)))
    return best.damage, best.attack


def min_cost_given_damage_treelike(
    cdat: CostDamageAT, threshold: float
) -> Tuple[Optional[float], Optional[FrozenSet[str]]]:
    """Solve CgD for a cd-AT bottom-up, DAGs included.

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
