"""The attack-tree data structure.

An :class:`AttackTree` is a rooted directed acyclic graph (Definition 1 of
the paper).  Despite the name it need not be a tree; when it is, we call it
*treelike*, and the faster bottom-up algorithms of Sections VI and IX apply.

The class is deliberately immutable after construction: algorithms memoise
derived data (topological order, BAS sets, treelike-ness) and rely on the
structure not changing underneath them.  To build trees incrementally, use
:class:`repro.attacktree.builder.AttackTreeBuilder`.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from .node import Node, NodeType

__all__ = ["AttackTree", "AttackTreeError"]


class AttackTreeError(ValueError):
    """Raised when an attack tree is structurally invalid."""


class AttackTree:
    """A rooted DAG of OR/AND gates over basic attack steps.

    Parameters
    ----------
    nodes:
        The nodes of the tree.  Child references must resolve to nodes in
        this collection; every node except the root must be reachable from
        the root; the graph must be acyclic; leaves must be BASs and gates
        must be internal (this is enforced by :class:`Node` itself).
    root:
        Name of the root node.  If omitted, the unique node without parents
        is used; it is an error if that node is not unique.

    Notes
    -----
    The node set ``N``, edge set ``E``, BAS set ``B``, children ``Ch(v)``
    and the treelike predicate of the paper map to :attr:`nodes`,
    :meth:`edges`, :attr:`basic_attack_steps`, :meth:`children` and
    :attr:`is_treelike` respectively.
    """

    __slots__ = (
        "_nodes",
        "_root",
        "_parents",
        "_topological_order",
        "_bas_names",
        "_is_treelike",
        "_descendants_cache",
        "_plan_cache",
    )

    def __init__(self, nodes: Iterable[Node], root: Optional[str] = None) -> None:
        node_list = list(nodes)
        self._nodes: Dict[str, Node] = {}
        for node in node_list:
            if node.name in self._nodes:
                raise AttackTreeError(f"duplicate node name {node.name!r}")
            self._nodes[node.name] = node

        if not self._nodes:
            raise AttackTreeError("an attack tree must have at least one node")

        self._parents: Dict[str, List[str]] = {name: [] for name in self._nodes}
        for node in self._nodes.values():
            for child in node.children:
                if child not in self._nodes:
                    raise AttackTreeError(
                        f"node {node.name!r} references unknown child {child!r}"
                    )
                self._parents[child].append(node.name)

        self._root = self._resolve_root(root)
        self._topological_order = self._compute_topological_order()
        self._descendants_cache: Dict[str, FrozenSet[str]] = {}
        # Bottom-up fold plans by target node, filled by repro.core.bottom_up:
        # the tree never changes, so a plan built once serves every solve.
        self._plan_cache: Dict[str, object] = {}
        self._check_reachability()
        self._bas_names: FrozenSet[str] = frozenset(
            name for name, node in self._nodes.items() if node.is_bas
        )
        self._is_treelike = all(
            len(parents) <= 1 for parents in self._parents.values()
        )

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _resolve_root(self, root: Optional[str]) -> str:
        if root is not None:
            if root not in self._nodes:
                raise AttackTreeError(f"root {root!r} is not a node of the tree")
            return root
        orphan_nodes = [name for name, parents in self._parents.items() if not parents]
        if len(orphan_nodes) != 1:
            raise AttackTreeError(
                "root is ambiguous: nodes without parents are "
                f"{sorted(orphan_nodes)!r}; pass root= explicitly"
            )
        return orphan_nodes[0]

    def _compute_topological_order(self) -> Tuple[str, ...]:
        """Return node names in a child-before-parent (bottom-up) order.

        Raises :class:`AttackTreeError` if the graph has a cycle.
        """
        state: Dict[str, int] = {}  # 0 = unvisited, 1 = on stack, 2 = done
        order: List[str] = []

        for start in self._nodes:
            if state.get(start, 0) == 2:
                continue
            # Iterative DFS to avoid recursion limits on deep trees.
            stack: List[Tuple[str, int]] = [(start, 0)]
            while stack:
                name, child_index = stack.pop()
                if child_index == 0:
                    if state.get(name, 0) == 1:
                        raise AttackTreeError(f"cycle detected through node {name!r}")
                    if state.get(name, 0) == 2:
                        continue
                    state[name] = 1
                children = self._nodes[name].children
                if child_index < len(children):
                    stack.append((name, child_index + 1))
                    child = children[child_index]
                    if state.get(child, 0) == 1:
                        raise AttackTreeError(f"cycle detected through node {child!r}")
                    if state.get(child, 0) == 0:
                        stack.append((child, 0))
                else:
                    state[name] = 2
                    order.append(name)
        return tuple(order)

    def _check_reachability(self) -> None:
        reachable = self.descendants(self._root) | {self._root}
        unreachable = set(self._nodes) - reachable
        if unreachable:
            raise AttackTreeError(
                f"nodes not reachable from root {self._root!r}: {sorted(unreachable)!r}"
            )

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def root(self) -> str:
        """Name of the root node ``R_T``."""
        return self._root

    @property
    def nodes(self) -> Mapping[str, Node]:
        """Read-only mapping from node name to :class:`Node`."""
        return dict(self._nodes)

    @property
    def node_names(self) -> Tuple[str, ...]:
        """All node names in bottom-up topological order."""
        return self._topological_order

    @property
    def basic_attack_steps(self) -> FrozenSet[str]:
        """The set ``B`` of BAS names."""
        return self._bas_names

    @property
    def gates(self) -> Tuple[str, ...]:
        """Names of all OR/AND gates in bottom-up topological order."""
        return tuple(n for n in self._topological_order if self._nodes[n].is_gate)

    @property
    def is_treelike(self) -> bool:
        """``True`` when every node has at most one parent."""
        return self._is_treelike

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: object) -> bool:
        return name in self._nodes

    def __iter__(self) -> Iterator[str]:
        return iter(self._topological_order)

    def node(self, name: str) -> Node:
        """Return the :class:`Node` with the given name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(f"no node named {name!r} in this attack tree") from None

    def node_type(self, name: str) -> NodeType:
        """Return ``γ(v)`` for the named node."""
        return self.node(name).type

    def children(self, name: str) -> Tuple[str, ...]:
        """Return ``Ch(v)``: the children of the named node."""
        return self.node(name).children

    def parents(self, name: str) -> Tuple[str, ...]:
        """Return the parents of the named node (empty for the root)."""
        if name not in self._nodes:
            raise KeyError(f"no node named {name!r} in this attack tree")
        return tuple(self._parents[name])

    def edges(self) -> Tuple[Tuple[str, str], ...]:
        """Return the edge set ``E`` as (parent, child) pairs."""
        return tuple(
            (node.name, child)
            for node in self._nodes.values()
            for child in node.children
        )

    # ------------------------------------------------------------------ #
    # derived structure
    # ------------------------------------------------------------------ #
    def topological_order(self, reverse: bool = False) -> Tuple[str, ...]:
        """Return node names bottom-up (children first) or top-down.

        Parameters
        ----------
        reverse:
            When ``True``, return a top-down (parent-before-child) order.
        """
        if reverse:
            return tuple(reversed(self._topological_order))
        return self._topological_order

    def descendants(self, name: str) -> FrozenSet[str]:
        """Return all strict descendants of the named node."""
        if name in self._descendants_cache:
            return self._descendants_cache[name]
        if name not in self._nodes:
            raise KeyError(f"no node named {name!r} in this attack tree")
        seen: Set[str] = set()
        stack = list(self._nodes[name].children)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._nodes[current].children)
        result = frozenset(seen)
        self._descendants_cache[name] = result
        return result

    def ancestors(self, name: str) -> FrozenSet[str]:
        """Return all strict ancestors of the named node."""
        if name not in self._nodes:
            raise KeyError(f"no node named {name!r} in this attack tree")
        seen: Set[str] = set()
        stack = list(self._parents[name])
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._parents[current])
        return frozenset(seen)

    def bas_descendants(self, name: str) -> FrozenSet[str]:
        """Return the BASs below (and possibly including) the named node.

        This is the set ``B_v`` used by the bottom-up algorithms.
        """
        node = self.node(name)
        if node.is_bas:
            return frozenset({name})
        return frozenset(d for d in self.descendants(name) if d in self._bas_names)

    def subtree(self, name: str) -> "AttackTree":
        """Return the sub-DAG ``T_v`` rooted at the named node."""
        keep = self.descendants(name) | {name}
        return AttackTree([self._nodes[n] for n in keep], root=name)

    def max_arity(self) -> int:
        """Return the largest number of children over all gates."""
        arities = [node.arity for node in self._nodes.values() if node.is_gate]
        return max(arities) if arities else 0

    def depth(self) -> int:
        """Return the number of edges on the longest root-to-leaf path."""
        depth_of: Dict[str, int] = {}
        for name in self._topological_order:  # children before parents
            node = self._nodes[name]
            if node.is_bas:
                depth_of[name] = 0
            else:
                depth_of[name] = 1 + max(depth_of[c] for c in node.children)
        return depth_of[self._root]

    def shared_nodes(self) -> FrozenSet[str]:
        """Return names of nodes with more than one parent (DAG sharing)."""
        return frozenset(
            name for name, parents in self._parents.items() if len(parents) > 1
        )

    # ------------------------------------------------------------------ #
    # structure function
    # ------------------------------------------------------------------ #
    def structure_function(self, attack: Iterable[str]) -> Dict[str, bool]:
        """Evaluate the structure function ``S(x, ·)`` for every node.

        Parameters
        ----------
        attack:
            Collection of activated BAS names (the attack ``x`` of
            Definition 2).  Names that are not BASs of this tree raise
            :class:`KeyError`.

        Returns
        -------
        dict
            Mapping node name -> whether the node is reached by the attack
            (Definition 3).
        """
        active = set(attack)
        unknown = active - self._bas_names
        if unknown:
            raise KeyError(f"attack references non-BAS nodes: {sorted(unknown)!r}")
        reached: Dict[str, bool] = {}
        for name in self._topological_order:
            node = self._nodes[name]
            if node.is_bas:
                reached[name] = name in active
            elif node.type is NodeType.OR:
                reached[name] = any(reached[c] for c in node.children)
            else:  # AND
                reached[name] = all(reached[c] for c in node.children)
        return reached

    def is_successful(self, attack: Iterable[str]) -> bool:
        """Return ``True`` when the attack reaches the root node."""
        return self.structure_function(attack)[self._root]

    # ------------------------------------------------------------------ #
    # comparison / display
    # ------------------------------------------------------------------ #
    def structurally_equal(self, other: "AttackTree") -> bool:
        """Return ``True`` when both trees have identical nodes and root."""
        if not isinstance(other, AttackTree):
            return NotImplemented
        return self._root == other._root and self._nodes == other._nodes

    def __repr__(self) -> str:
        kind = "treelike" if self._is_treelike else "DAG"
        return (
            f"AttackTree(root={self._root!r}, nodes={len(self._nodes)}, "
            f"bas={len(self._bas_names)}, {kind})"
        )

    def pretty(self) -> str:
        """Return a multi-line indented rendering of the tree.

        Shared sub-DAGs are printed once per parent (with a ``*`` marker on
        repeat visits) so the output stays linear in the number of edges.
        """
        lines: List[str] = []
        seen: Set[str] = set()

        def visit(name: str, indent: int) -> None:
            node = self._nodes[name]
            marker = ""
            if node.is_gate and name in seen:
                marker = " (*)"
            lines.append("  " * indent + node.describe() + marker)
            if node.is_gate and name not in seen:
                seen.add(name)
                for child in node.children:
                    visit(child, indent + 1)

        visit(self._root, 0)
        return "\n".join(lines)
