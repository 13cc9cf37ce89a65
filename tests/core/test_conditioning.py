"""The shared-node conditioning kernel against the enumerative oracle.

The workload families only ever share BASs, so the DAGs with shared
*gates* — where a whole subtree is copied by the unfolding and the gate's
own damage sits on no copy — are built here by hand.
"""

import random

import pytest

from repro.attacktree.attributes import CostDamageAT
from repro.attacktree.catalog import data_server, factory
from repro.attacktree.node import Node, NodeType
from repro.attacktree.tree import AttackTree
from repro.core import bottom_up, enumerative
from repro.core.conditioning import (
    MAX_WORK,
    Conditioning,
    decline_reason,
    path_counts,
)
from repro.core.problems import Problem
from repro.core.semantics import evaluate_attack
from repro.engine import AnalysisRequest, default_registry, run_request

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

    The diamonds hold no BASs of their own, so the cut set stays at the
    two BASs under the bottom gate while the unfolding doubles per link.
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
    """CDPF, DgC and CgD of the kernel equal the enumerative oracle."""
    kernel = Conditioning(cdat)
    front = kernel.pareto_front()
    reference = enumerative.enumerate_pareto_front(cdat)
    assert front.values_equal(reference), (front, reference)
    for point in front:
        assert (point.cost, point.damage) == evaluate_attack(cdat, point.attack)[:2]
    costs = sorted({point.cost for point in reference})
    damages = sorted({point.damage for point in reference})
    budgets = [-1.0, 1e6] + [c + delta for c in costs for delta in (-0.5, 0.0, 0.5)]
    for budget in budgets:
        value, witness = Conditioning(cdat).max_damage_given_cost(budget)
        expected, _ = enumerative.enumerate_max_damage_given_cost(cdat, budget)
        assert value == pytest.approx(expected, abs=1e-9), budget
        if witness is not None:
            cost, damage, _ = evaluate_attack(cdat, witness)
            assert cost <= budget + 1e-9 and damage == pytest.approx(value)
    thresholds = [0.0, damages[-1] + 1.0] + [
        d + delta for d in damages for delta in (-0.5, 0.0, 0.5)
    ]
    for threshold in thresholds:
        value, witness = Conditioning(cdat).min_cost_given_damage(threshold)
        expected, _ = enumerative.enumerate_min_cost_given_damage(cdat, threshold)
        if expected is None:
            assert value is None and witness is None, threshold
        else:
            assert value == pytest.approx(expected, abs=1e-9), threshold
            _, damage, _ = evaluate_attack(cdat, witness)
            assert damage >= threshold - 1e-9


class TestUnfolding:
    def test_path_counts_are_copy_counts(self):
        counts = path_counts(nested_shared_gates().tree)
        assert counts["root"] == 1
        assert counts["outer"] == 2
        # inner: once per outer copy, plus once each under b and c.
        assert counts["inner"] == 4
        assert counts["s"] == 4 and counts["r"] == 2 and counts["q"] == 2

    def test_cut_set_is_the_multi_copy_bass(self):
        assert Conditioning(shared_and_gate()).shared == ("s1", "s2")
        assert Conditioning(nested_shared_gates()).shared == ("q", "r", "s", "t")
        assert Conditioning(data_server()).shared == ("b6",)

    def test_treelike_model_is_one_bottom_up_run(self):
        cdat = factory()
        kernel = Conditioning(cdat)
        assert kernel.shared == ()
        front = kernel.pareto_front()
        assert kernel.runs == 1
        assert front.values() == bottom_up.pareto_front_treelike(cdat).values()


class TestSharedGates:
    def test_shared_and_gate(self):
        _assert_matches_enumerative(shared_and_gate())

    def test_nested_shared_gates(self):
        _assert_matches_enumerative(nested_shared_gates())

    def test_shared_gate_damage_is_counted_once(self):
        cdat = shared_and_gate()
        point = Conditioning(cdat).pareto_front().cheapest_attack_given_damage(13.0)
        # {s1, s2} reaches shared (7), s1 (1), right (2) and root (10); the
        # other attack of cost 5, {x, y}, only does 13.
        assert point.attack == frozenset({"s1", "s2"})
        assert (point.cost, point.damage) == (5.0, 20.0)

    @pytest.mark.parametrize("seed", SHARED_GATE_SEEDS)
    def test_random_shared_gate_dags(self, seed):
        _assert_matches_enumerative(shared_gate_dag(seed))


class TestDiamondChains:
    def test_short_chain_is_accepted_and_exact(self):
        cdat = diamond_chain(2)
        for problem in MAX_WORK:
            assert decline_reason(cdat.tree, problem) is None
        _assert_matches_enumerative(cdat)

    # The shortest chain each problem's work cutoff declines.
    @pytest.mark.parametrize(
        "problem, links", [(Problem.CDPF, 10), (Problem.DGC, 5), (Problem.CGD, 3)]
    )
    def test_long_chain_hits_the_work_cutoff(self, problem, links):
        cdat = diamond_chain(links)
        counts = path_counts(cdat.tree)
        assert counts["bottom"] == 2 ** links
        # k stays at 2: the unfolding's growth alone declines the chain.
        assert Conditioning(cdat).shared == ("s", "t")
        assert 4 * sum(counts.values()) > MAX_WORK[problem]
        assert "unfolding" in decline_reason(cdat.tree, problem)
        registry = default_registry()
        assert registry.resolve(problem, cdat).name == "bilp"
        assert registry.resolve(problem, diamond_chain(links - 1)).name == (
            "conditioning"
        )
        # A named request ignores the cost rule and is still exact.
        assert registry.resolve(problem, cdat, backend="conditioning").name == (
            "conditioning"
        )
        front = run_request(
            cdat, AnalysisRequest(Problem.CDPF, backend="conditioning")
        ).front
        assert front.values_equal(enumerative.enumerate_pareto_front(cdat))


class TestRunBudget:
    def test_costliest_attack_survives_float_rounding(self):
        # The shared BAS is free, so the attack of every BAS costs the whole
        # total.  With costs this large the kernel's running sums land a few
        # ulps above the fsum of the costs, more than EPSILON allows, so a
        # run budget of exactly the total would prune that attack.
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
        assert Conditioning(cdat).shared == ("s",)
        front = Conditioning(cdat).pareto_front()
        assert front.values_equal(enumerative.enumerate_pareto_front(cdat))
        assert max(point.damage for point in front) == 1.0
        total = sum(costs)
        for budget in (total, 2 * total):
            value, witness = Conditioning(cdat).max_damage_given_cost(budget)
            assert value == 1.0 and witness == frozenset(cost)


class TestBudgetsAndThresholds:
    def test_dgc_skips_unaffordable_conditions(self):
        cdat = shared_and_gate()
        kernel = Conditioning(cdat)
        kernel.max_damage_given_cost(2.5)
        # Only {} and {s1} fit a budget of 2.5 (s2 alone costs 3).
        assert kernel.runs == 2

    def test_dgc_budget_above_total_cost(self):
        cdat = nested_shared_gates()
        total = sum(cdat.cost.values())
        value, witness = Conditioning(cdat).max_damage_given_cost(10 * total)
        assert value == pytest.approx(sum(cdat.damage.values()))
        assert evaluate_attack(cdat, witness)[1] == pytest.approx(value)

    def test_negative_budget(self):
        assert Conditioning(shared_and_gate()).max_damage_given_cost(-1) == (0.0, None)

    def test_dgc_and_cgd_probe_the_data_server(self):
        _assert_matches_enumerative(data_server())


class TestBackendCounters:
    def test_extras_report_shared_bas_and_runs(self):
        cdat = nested_shared_gates()
        result = run_request(cdat, AnalysisRequest(Problem.CDPF, backend="conditioning"))
        assert result.extras == {"shared_bas": 4, "conditioned_runs": 16}
        result = run_request(
            cdat, AnalysisRequest(Problem.DGC, budget=1.0, backend="conditioning")
        )
        # Affordable subsets of {q: 2, r: 1, s: 3, t: 1} within 1: {}, {r}, {t}.
        assert result.extras == {"shared_bas": 4, "conditioned_runs": 3}
