"""The labelled bottom-up fold on DAG-like ATs against the enumerative oracle.

The workload families only ever share BASs, so the DAGs with shared
*gates* — whose own damage must be counted once, whichever parents reach
them — are built here by hand or drawn by Hypothesis.
"""

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attacktree.attributes import CostDamageAT
from repro.attacktree.catalog import data_server, factory, panda_iot
from repro.attacktree.node import Node, NodeType
from repro.attacktree.tree import AttackTree
from repro.core import enumerative
from repro.core import bottom_up
from repro.core.bottom_up import (
    _dominators,
    _Plan,
    label_width,
    max_damage_given_cost_treelike,
    min_cost_given_damage_treelike,
    pareto_front_treelike,
)
from repro.core.problems import Problem
from repro.core.semantics import evaluate_attack
from repro.engine import AnalysisRequest, default_registry, run_request
from repro.workloads import ScenarioSpec, expand

AND, OR, BAS = NodeType.AND, NodeType.OR, NodeType.BAS


def _model(spec, cost, damage, root="root"):
    """A cd-AT from ``{name: (type, children)}``; BASs are implicit leaves."""
    names = {child for _, children in spec.values() for child in children}
    nodes = [Node(name, kind, tuple(children)) for name, (kind, children) in spec.items()]
    nodes += [Node(name, BAS) for name in sorted(names - set(spec))]
    return CostDamageAT(AttackTree(nodes, root=root), cost, damage)


def shared_and_gate():
    """An AND gate with its own damage under two different parents."""
    return _model(
        {
            "root": (OR, ("left", "right")),
            "left": (AND, ("shared", "x")),
            "right": (OR, ("shared", "y")),
            "shared": (AND, ("s1", "s2")),
        },
        cost={"s1": 2, "s2": 3, "x": 1, "y": 4},
        damage={"root": 10, "left": 5, "right": 2, "shared": 7, "s1": 1, "x": 1},
    )


def nested_shared_gates():
    """A shared gate below another shared gate, plus a shared BAS."""
    return _model(
        {
            "root": (AND, ("a", "b", "c")),
            "a": (OR, ("outer", "p")),
            "b": (OR, ("outer", "inner", "q")),
            "c": (OR, ("inner", "q")),
            "outer": (AND, ("inner", "r")),
            "inner": (OR, ("s", "t")),
        },
        cost={"p": 5, "q": 2, "r": 1, "s": 3, "t": 1},
        damage={"root": 20, "a": 3, "b": 4, "outer": 6, "inner": 5, "q": 1, "t": 2},
    )


def shared_gate_dag(seed):
    """A random DAG whose gates draw children from every earlier node."""
    rng = random.Random(seed)
    pool = [f"b{i}" for i in range(rng.randint(2, 6))]
    spec = {}
    for index in range(rng.randint(2, 5)):
        children = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
        spec[f"g{index}"] = (rng.choice([AND, OR]), tuple(children))
        pool.append(f"g{index}")
    used = {child for _, children in spec.values() for child in children}
    spec["root"] = (rng.choice([AND, OR]), tuple(n for n in pool if n not in used))
    bas = [name for name in pool if name not in spec]
    return _model(
        spec,
        cost={name: rng.randint(0, 5) for name in bas},
        damage={name: rng.randint(0, 5) for name in pool + ["root"]},
    )


def _shares_a_gate(cdat):
    tree = cdat.tree
    return any(tree.node(name).is_gate for name in tree.shared_nodes())


#: The first 30 generator seeds whose DAG shares at least one gate.
SHARED_GATE_SEEDS = [
    seed for seed in range(300) if _shares_a_gate(shared_gate_dag(seed))
][:30]


def diamond_chain(links):
    """``links`` diamonds in a row: each shared gate feeds the next pair.

    Each diamond's shared gate closes at the diamond's top, so the frontier
    width stays 1 however long the chain is, while the number of
    root-to-bottom paths doubles per link.
    """
    spec = {"root": (OR, ("top", "z"))}
    for level in range(links):
        spec["top" if level == 0 else f"g{level}"] = (
            AND, (f"l{level}", f"r{level}")
        )
        below = f"g{level + 1}" if level + 1 < links else "bottom"
        spec[f"l{level}"] = (OR, (below,))
        spec[f"r{level}"] = (AND, (below,))
    spec["bottom"] = (OR, ("s", "t"))
    damage = {name: 1 + index % 3 for index, name in enumerate(spec)}
    return _model(spec, cost={"s": 2, "t": 3, "z": 4}, damage=damage)


def _assert_matches_enumerative(cdat):
    """CDPF, DgC and CgD of the kernel equal the enumerative oracle, and
    every witness realises the cost and damage reported for it."""
    front = pareto_front_treelike(cdat)
    reference = enumerative.enumerate_pareto_front(cdat)
    assert front.values_equal(reference), (front, reference)
    for point in front:
        assert (point.cost, point.damage) == pytest.approx(
            evaluate_attack(cdat, point.attack)[:2]
        )
    costs = sorted({point.cost for point in reference})
    damages = sorted({point.damage for point in reference})
    budgets = [-1.0, 1e6] + [c + delta for c in costs for delta in (-0.5, 0.0, 0.5)]
    for budget in budgets:
        value, witness = max_damage_given_cost_treelike(cdat, budget)
        expected, _ = enumerative.enumerate_max_damage_given_cost(cdat, budget)
        assert value == pytest.approx(expected, abs=1e-9), budget
        if witness is not None:
            cost, damage, _ = evaluate_attack(cdat, witness)
            assert cost <= budget + 1e-9 and damage == pytest.approx(value)
    thresholds = [0.0, damages[-1] + 1.0] + [
        d + delta for d in damages for delta in (-0.5, 0.0, 0.5)
    ]
    for threshold in thresholds:
        value, witness = min_cost_given_damage_treelike(cdat, threshold)
        expected, _ = enumerative.enumerate_min_cost_given_damage(cdat, threshold)
        if expected is None:
            assert value is None and witness is None, threshold
        else:
            assert value == pytest.approx(expected, abs=1e-9), threshold
            cost, damage, _ = evaluate_attack(cdat, witness)
            assert cost == pytest.approx(value) and damage >= threshold - 1e-9


@st.composite
def random_dags(draw):
    """A cd-AT over at most 10 BASs whose gates draw children from every
    earlier node, so BASs and gates (with damage) are shared, sharing nests,
    and the root may take an already-used node as a further child."""
    pool = [f"b{i}" for i in range(draw(st.integers(1, 10)))]
    spec = {}
    for index in range(draw(st.integers(1, 6))):
        children = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3,
                                 unique=True))
        spec[f"g{index}"] = (draw(st.sampled_from([AND, OR])), tuple(children))
        pool.append(f"g{index}")
    used = sorted({child for _, children in spec.values() for child in children})
    again = draw(st.lists(st.sampled_from(used), max_size=2, unique=True))
    spec["root"] = (
        draw(st.sampled_from([AND, OR])),
        tuple(name for name in pool if name not in used) + tuple(again),
    )
    values = st.integers(0, 5).map(float)
    return _model(
        spec,
        cost={name: draw(values) for name in pool if name not in spec},
        damage={name: draw(values) for name in [*pool, "root"]},
    )


class TestHypothesisDifferential:
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cdat=random_dags())
    def test_matches_enumerative(self, cdat):
        _assert_matches_enumerative(cdat)


class TestSharedGates:
    def test_shared_and_gate(self):
        _assert_matches_enumerative(shared_and_gate())

    def test_nested_shared_gates(self):
        _assert_matches_enumerative(nested_shared_gates())

    def test_shared_gate_damage_is_counted_once(self):
        cdat = shared_and_gate()
        point = pareto_front_treelike(cdat).cheapest_attack_given_damage(13.0)
        # {s1, s2} reaches shared (7), s1 (1), right (2) and root (10); the
        # other attack of cost 5, {x, y}, only does 13.
        assert point.attack == frozenset({"s1", "s2"})
        assert (point.cost, point.damage) == (5.0, 20.0)

    @pytest.mark.parametrize("seed", SHARED_GATE_SEEDS)
    def test_random_shared_gate_dags(self, seed):
        _assert_matches_enumerative(shared_gate_dag(seed))

    def test_data_server(self):
        _assert_matches_enumerative(data_server())


class TestLabels:
    def test_treelike_model_has_no_labels(self):
        assert label_width(factory().tree) == (0, 0)

    @pytest.mark.parametrize("model, expected", [
        (shared_and_gate, (1, 1)), (nested_shared_gates, (3, 3)), (data_server, (1, 1)),
    ])
    def test_shared_nodes_and_width(self, model, expected):
        assert label_width(model().tree) == expected

    def test_immediate_dominators(self):
        idom = _dominators(nested_shared_gates().tree)
        assert idom["root"] is None
        assert idom["outer"] == idom["inner"] == idom["q"] == "root"
        assert idom["s"] == "inner" and idom["r"] == "outer"
        assert _dominators(diamond_chain(3).tree)["g1"] == "top"

    @pytest.mark.parametrize("model", [factory, panda_iot])
    def test_treelike_gates_fold_children_in_order(self, model):
        tree = model().tree
        plan = _Plan(tree, tree.root)
        assert plan.width == 0 and plan.labels == {}
        for gate in tree.gates:
            assert plan.steps[gate] == [(0, child) for child in tree.children(gate)]

    def test_labels_close_parents_first(self):
        # outer's front carries inner's label, so outer joins first; inner
        # and q close only after c, the last child carrying them.
        cdat = nested_shared_gates()
        plan = _Plan(cdat.tree, "root")
        steps = [name for _, name in plan.steps["root"]]
        assert steps == ["a", "b", "outer", "c", "inner", "q"]
        assert [bit != 0 for bit, _ in plan.steps["root"]] == [
            False, False, True, False, True, True,
        ]

    @pytest.mark.parametrize("size", [9, 15, 24])
    def test_wide_fan_overlap_stays_open_to_the_root(self, size):
        (case,) = expand(ScenarioSpec(
            family="wide-fan", shape="dag", setting="deterministic", sizes=(size,)
        ))
        assert label_width(case.model.tree) == (size // 3, size // 3)

    def test_shared_bas_labels_close_early(self):
        # k = 11 shared BASs, yet at most 3 labels are ever open at once.
        (case,) = expand(ScenarioSpec(
            family="shared-bas", shape="dag", setting="deterministic", sizes=(22,)
        ))
        assert label_width(case.model.tree) == (11, 3)


class TestDiamondChains:
    def test_short_chain_is_exact(self):
        _assert_matches_enumerative(diamond_chain(2))

    def test_long_chain_stays_narrow(self):
        cdat = diamond_chain(12)
        assert label_width(cdat.tree) == (12, 1)
        registry = default_registry()
        for problem in (Problem.CDPF, Problem.DGC, Problem.CGD):
            assert registry.resolve(problem, cdat).name == "bottom-up"
        _assert_matches_enumerative(cdat)


class TestBudgets:
    def test_costliest_attack_survives_float_rounding(self):
        # The shared BAS is free, so the attack of every BAS costs the whole
        # total.  With costs this large the kernel's running sums land a few
        # ulps away from the fsum of the costs.
        costs = [
            68961901.5637289, 96935024.37911585, 72859407.54320501,
            53235312.02187742, 76606398.51801746, 93977534.87591007,
        ]
        spec = {
            "root": (AND, ("g1", "g2")),
            "g1": (AND, ("s", "a0", "a1", "a2")),
            "g2": (AND, ("s", "b0", "b1", "b2")),
        }
        names = ["a0", "a1", "a2", "b0", "b1", "b2"]
        cost = {"s": 0.0, **dict(zip(names, costs))}
        damage = {name: 0.0 for name in [*spec, "s", *names]}
        damage["root"] = 1.0
        cdat = _model(spec, cost, damage)
        front = pareto_front_treelike(cdat)
        assert front.values_equal(enumerative.enumerate_pareto_front(cdat))
        assert max(point.damage for point in front) == 1.0
        total = sum(costs)
        for budget in (total, 2 * total):
            value, witness = max_damage_given_cost_treelike(cdat, budget)
            assert value == 1.0 and witness == frozenset(cost)

    def test_dgc_budget_above_total_cost(self):
        cdat = nested_shared_gates()
        total = sum(cdat.cost.values())
        value, witness = max_damage_given_cost_treelike(cdat, 10 * total)
        assert value == pytest.approx(sum(cdat.damage.values()))
        assert evaluate_attack(cdat, witness)[1] == pytest.approx(value)

    def test_negative_budget(self):
        assert max_damage_given_cost_treelike(shared_and_gate(), -1) == (0.0, None)


class TestEngineRouting:
    @pytest.mark.parametrize("request_, name", [
        (AnalysisRequest(Problem.CDPF), "pareto_front_treelike"),
        (AnalysisRequest(Problem.DGC, budget=300.0), "max_damage_given_cost_treelike"),
        (AnalysisRequest(Problem.CGD, threshold=60.0), "min_cost_given_damage_treelike"),
    ])
    def test_dag_requests_run_through_the_public_solvers(self, request_, name):
        # Tracing and profiling hooks patch these module attributes.
        with mock.patch.object(
            bottom_up, name, wraps=getattr(bottom_up, name)
        ) as solver:
            result = run_request(data_server(), request_)
        assert result.backend == "bottom-up"
        assert solver.call_count == 1


class TestBackendCounters:
    def test_extras_report_shared_nodes_and_width(self):
        cdat = nested_shared_gates()
        for request in (
            AnalysisRequest(Problem.CDPF),
            AnalysisRequest(Problem.DGC, budget=1.0),
            AnalysisRequest(Problem.CGD, threshold=10.0),
        ):
            result = run_request(cdat, request)
            assert result.backend == "bottom-up"
            assert result.extras == {"shared_nodes": 3, "width": 3}

    def test_treelike_results_carry_no_extras(self):
        assert run_request(factory(), AnalysisRequest(Problem.CDPF)).extras == {}
