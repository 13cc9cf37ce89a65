"""Interoperability with networkx.

Attack trees are rooted DAGs, so they map naturally onto
:class:`networkx.DiGraph`.  This module provides loss-less conversions in
both directions so that users can

* visualise trees with the networkx/graphviz ecosystem,
* compute generic graph statistics (diameter, degree distributions, …) on
  their models, and
* import models that were produced by other tools as annotated digraphs.

Node attributes used on the networkx side:

``type``
    ``"BAS"``, ``"OR"`` or ``"AND"``.
``label``
    The human-readable label (may be empty).
``cost`` / ``damage`` / ``probability``
    Present when the converted object carried the corresponding decoration.

Edges point from parent (gate) to child, matching the paper's edge set ``E``.
networkx is imported on the first conversion, not with this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from .attributes import CostDamageAT, CostDamageProbAT
from .node import Node, NodeType
from .tree import AttackTree, AttackTreeError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["to_networkx", "from_networkx"]

Decorated = Union[AttackTree, CostDamageAT, CostDamageProbAT]


def to_networkx(model: Decorated) -> nx.DiGraph:
    """Convert a (decorated) attack tree into an annotated ``nx.DiGraph``.

    The graph carries ``graph["root"]`` so the conversion round-trips.
    """
    import networkx as nx

    if isinstance(model, (CostDamageAT, CostDamageProbAT)):
        tree = model.tree
        cost = model.cost
        damage = model.damage
        probability = model.probability if isinstance(model, CostDamageProbAT) else None
    elif isinstance(model, AttackTree):
        tree, cost, damage, probability = model, None, None, None
    else:
        raise TypeError(f"cannot convert object of type {type(model).__name__}")

    graph = nx.DiGraph(root=tree.root)
    for name in tree.topological_order(reverse=True):
        node = tree.node(name)
        attributes = {"type": node.type.value, "label": node.label}
        if cost is not None and node.is_bas:
            attributes["cost"] = cost[name]
        if damage is not None:
            attributes["damage"] = damage.get(name, 0.0)
        if probability is not None and node.is_bas:
            attributes["probability"] = probability[name]
        graph.add_node(name, **attributes)
    graph.add_edges_from(tree.edges())
    return graph


def from_networkx(graph: nx.DiGraph, root: Optional[str] = None) -> Decorated:
    """Convert an annotated ``nx.DiGraph`` back into an attack tree.

    Every node must carry a ``type`` attribute; ``cost`` / ``damage`` /
    ``probability`` attributes, when present, reconstruct a cd-AT or cdp-AT.
    The root is taken from ``graph.graph["root"]`` unless passed explicitly.
    """
    if root is None:
        root = graph.graph.get("root")

    nodes = []
    cost = {}
    damage = {}
    probability = {}
    has_cost = has_damage = has_probability = False
    for name, attributes in graph.nodes(data=True):
        try:
            node_type = NodeType(attributes["type"])
        except (KeyError, ValueError) as exc:
            raise AttackTreeError(
                f"node {name!r} lacks a valid 'type' attribute: {exc}"
            ) from exc
        children = tuple(graph.successors(name))
        nodes.append(
            Node(name=name, type=node_type, children=children,
                 label=attributes.get("label", ""))
        )
        if "cost" in attributes:
            cost[name] = float(attributes["cost"])
            has_cost = True
        if "damage" in attributes and attributes["damage"]:
            damage[name] = float(attributes["damage"])
            has_damage = True
        if "probability" in attributes:
            probability[name] = float(attributes["probability"])
            has_probability = True

    tree = AttackTree(nodes, root=root)
    if has_probability:
        full_cost = {b: cost.get(b, 0.0) for b in tree.basic_attack_steps}
        full_probability = {b: probability.get(b, 1.0) for b in tree.basic_attack_steps}
        return CostDamageProbAT(tree, full_cost, damage, full_probability)
    if has_cost or has_damage:
        full_cost = {b: cost.get(b, 0.0) for b in tree.basic_attack_steps}
        return CostDamageAT(tree, full_cost, damage)
    return tree
