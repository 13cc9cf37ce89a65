"""Shared fixtures and hypothesis strategies for the test-suite.

The strategies build *small* random attack trees (both treelike and
DAG-like) with random decorations; property-based tests use them to check
that independent solvers (bottom-up, BILP, enumerative) agree, that the
paper's worked examples hold, and that structural invariants are preserved
by every transformation.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import strategies as st

from repro.attacktree import catalog
from repro.attacktree.attributes import CostDamageAT, CostDamageProbAT
from repro.attacktree.node import Node, NodeType
from repro.attacktree.tree import AttackTree


# --------------------------------------------------------------------------- #
# fixtures: the paper's models
# --------------------------------------------------------------------------- #
@pytest.fixture
def factory() -> CostDamageAT:
    """The Fig. 1 running example."""
    return catalog.factory()


@pytest.fixture
def factory_probabilistic() -> CostDamageProbAT:
    """The Fig. 1 example with the probabilities of Example 8."""
    return catalog.factory_probabilistic()


@pytest.fixture(scope="session")
def panda() -> CostDamageProbAT:
    """The Fig. 4 panda-IoT case study (treelike, 22 BASs)."""
    return catalog.panda_iot()


@pytest.fixture(scope="session")
def data_server() -> CostDamageAT:
    """The Fig. 5 data-server case study (DAG-like, 12 BASs)."""
    return catalog.data_server()


@pytest.fixture
def example10() -> CostDamageProbAT:
    """The Example 10 OR pair used to contrast deterministic/probabilistic."""
    return catalog.example10_or_pair()


# --------------------------------------------------------------------------- #
# shared databases
# --------------------------------------------------------------------------- #
class TwoHandles:
    """Route each call to one of two handles on the same database file, in
    turn, the way a coordinator and its workers each open their own handle.

    Semantic tests run through it to show that every piece of queue or
    store state lives in the database: a write through one handle must be
    seen by a read through the other.  Per-instance counters (a store's
    ``stats``) are not persisted by design, so they are summed.
    """

    def __init__(self, first, second) -> None:
        self._handles = (first, second)
        self._calls = 0

    def __getattr__(self, name):
        attribute = getattr(self._handles[self._calls % 2], name)
        if not callable(attribute):
            return attribute

        def call(*args, **kwargs):
            handle = self._handles[self._calls % 2]
            self._calls += 1
            return getattr(handle, name)(*args, **kwargs)

        return call

    @property
    def stats(self):
        first, second = (handle.stats for handle in self._handles)
        return type(first)(**{
            field.name: getattr(first, field.name) + getattr(second, field.name)
            for field in dataclasses.fields(first)
        })

    def __len__(self) -> int:
        return self.__getattr__("__len__")()

    def close(self) -> None:
        for handle in self._handles:
            handle.close()


class CountingQueue:
    """A work queue that records its ``tasks`` and ``get_meta`` calls.

    Everything is forwarded to ``inner``.  ``calls`` holds ``("tasks",
    state, task_ids)`` and ``("get_meta", key)`` tuples, so a test can
    show which reads a caller makes.  With ``ignore_task_ids`` the
    ``task_ids`` filter is dropped before forwarding, the way a broker
    that predates it answers.
    """

    def __init__(self, inner, ignore_task_ids: bool = False) -> None:
        self.inner = inner
        self.ignore_task_ids = ignore_task_ids
        self.calls: List[tuple] = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def tasks(self, state=None, task_ids=None):
        self.calls.append(
            ("tasks", state, None if task_ids is None else tuple(task_ids))
        )
        if self.ignore_task_ids:
            return self.inner.tasks(state)
        return self.inner.tasks(state, task_ids=task_ids)

    def get_meta(self, key):
        self.calls.append(("get_meta", key))
        return self.inner.get_meta(key)

    def unfiltered_scans(self) -> List[tuple]:
        """The ``tasks()`` calls that named neither a state nor ids."""
        return [
            call for call in self.calls
            if call[0] == "tasks" and call[1] is None and call[2] is None
        ]


# --------------------------------------------------------------------------- #
# random model generation (plain `random`, used by seeded deterministic tests)
# --------------------------------------------------------------------------- #
def make_random_tree(
    seed: int,
    max_bas: int = 6,
    treelike: bool = True,
    max_damage: int = 10,
    max_cost: int = 8,
) -> CostDamageProbAT:
    """Build a small random decorated AT, deterministically from ``seed``.

    Trees are grown top-down; when ``treelike`` is ``False`` one extra edge
    to an existing BAS is added to create sharing.
    """
    rng = random.Random(seed)
    bas_count = rng.randint(2, max_bas)
    bas_names = [f"b{i}" for i in range(bas_count)]
    nodes: Dict[str, Node] = {
        name: Node(name=name, type=NodeType.BAS) for name in bas_names
    }
    gate_index = 0
    available = list(bas_names)
    # Repeatedly combine 2-3 available roots under a new gate until one root
    # remains; this always yields a treelike AT over all BASs.
    while len(available) > 1:
        arity = min(len(available), rng.choice([2, 2, 3]))
        children = [available.pop(rng.randrange(len(available))) for _ in range(arity)]
        gate_name = f"g{gate_index}"
        gate_index += 1
        gate_type = rng.choice([NodeType.OR, NodeType.AND])
        nodes[gate_name] = Node(name=gate_name, type=gate_type, children=tuple(children))
        available.append(gate_name)
    root = available[0]
    if root in bas_names:
        # Degenerate single-BAS tree: wrap it in an OR gate for a proper root.
        nodes["g_root"] = Node(name="g_root", type=NodeType.OR, children=(root,))
        root = "g_root"

    if not treelike:
        gates = [n for n in nodes.values() if n.is_gate]
        target_gate = rng.choice(gates)
        shared_bas = rng.choice(bas_names)
        if shared_bas not in target_gate.children:
            nodes[target_gate.name] = target_gate.with_children(
                target_gate.children + (shared_bas,)
            )

    tree = AttackTree(nodes.values(), root=root)
    cost = {b: float(rng.randint(1, max_cost)) for b in tree.basic_attack_steps}
    damage = {n: float(rng.randint(0, max_damage)) for n in tree.node_names}
    probability = {b: rng.choice([0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
                   for b in tree.basic_attack_steps}
    return CostDamageProbAT(tree, cost, damage, probability)


@pytest.fixture
def random_treelike_models() -> List[CostDamageProbAT]:
    """Twelve small seeded treelike cdp-ATs for agreement tests."""
    return [make_random_tree(seed, treelike=True) for seed in range(12)]


@pytest.fixture
def random_dag_models() -> List[CostDamageProbAT]:
    """Twelve small seeded DAG-like cdp-ATs for agreement tests."""
    return [make_random_tree(seed, treelike=False) for seed in range(100, 112)]


# --------------------------------------------------------------------------- #
# hypothesis strategies
# --------------------------------------------------------------------------- #
@st.composite
def small_cdp_ats(draw, max_bas: int = 5, treelike: bool = True) -> CostDamageProbAT:
    """Hypothesis strategy producing small decorated ATs."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return make_random_tree(seed, max_bas=max_bas, treelike=treelike)


@st.composite
def cost_damage_pairs(draw, size: int = 6) -> List[Tuple[float, float]]:
    """Hypothesis strategy producing lists of (cost, damage) points."""
    count = draw(st.integers(min_value=0, max_value=size))
    points = []
    for _ in range(count):
        cost = draw(st.floats(min_value=0, max_value=100, allow_nan=False))
        damage = draw(st.floats(min_value=0, max_value=100, allow_nan=False))
        points.append((cost, damage))
    return points
