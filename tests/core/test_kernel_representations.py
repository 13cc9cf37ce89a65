"""Tests for the compact kernel representations.

The bottom-up solver stores fronts as parallel lists, witnesses as integer
bitsets and memoises structurally identical subtrees.  These tests pin the
contracts those representations must keep: witnesses materialise back to
attacks that actually have the claimed attributes, memo hits never change
results, and the gate fold (outer sums, early budget cut, staircase) agrees
with full enumeration with and without a budget.
"""

import pytest

from repro.attacktree.builder import AttackTreeBuilder
from repro.core.bottom_up import (
    _TripleKernel,
    max_damage_given_cost_treelike,
    node_pareto_front,
    pareto_front_treelike,
)
from repro.core.bottom_up_prob import (
    _ProbKernel,
    max_expected_damage_given_cost_treelike,
)
from repro.core.enumerative import (
    enumerate_max_damage_given_cost,
    enumerate_pareto_front,
)
from repro.core.semantics import evaluate_attack

from ..conftest import make_random_tree

def _twin_subtree_model():
    """An OR root over two decoration-identical AND subtrees (a cdp-AT;
    ``.deterministic()`` gives the cd-AT)."""
    builder = AttackTreeBuilder()
    for suffix in ("1", "2"):
        builder.bas(f"a{suffix}", cost=1.0, damage=2.0, probability=0.5)
        builder.bas(f"b{suffix}", cost=3.0, damage=4.0, probability=0.8)
        builder.and_gate(f"g{suffix}", [f"a{suffix}", f"b{suffix}"], damage=5.0)
    builder.or_gate("root", ["g1", "g2"], damage=0.0)
    return builder.build_cdp(root="root")


def _epsilon_tie_model():
    """OR root over ``a`` and ``g = AND(b, c)``: the attacks {a} and {b, c}
    both deal damage 1 at ε-equal costs 0.1 + 0.2 and 0.15 + 0.15 = 0.3,
    so the cheaper of the two needs more BASs."""
    builder = AttackTreeBuilder()
    builder.bas("a", cost=0.1 + 0.2)
    builder.bas("b", cost=0.15)
    builder.bas("c", cost=0.15)
    builder.and_gate("g", ["b", "c"])
    builder.or_gate("root", ["a", "g"], damage=1.0)
    return builder.build_cdp(root="root")


class TestBitsetWitnesses:
    @pytest.mark.parametrize("seed", range(10))
    def test_root_witnesses_evaluate_to_their_triples(self, seed):
        model = make_random_tree(seed, treelike=True).deterministic()
        for item in node_pareto_front(model):
            cost, damage, reached = evaluate_attack(model, item.attack)
            assert cost == pytest.approx(item.cost)
            assert damage == pytest.approx(item.damage)
            assert reached is item.reached

    def test_witnesses_are_frozensets_of_bas_names(self):
        model = _twin_subtree_model().deterministic()
        universe = model.tree.basic_attack_steps
        for item in node_pareto_front(model):
            assert isinstance(item.attack, frozenset)
            assert item.attack <= set(universe)


class TestStructuralMemoization:
    @pytest.mark.parametrize("setting", ["deterministic", "probabilistic"])
    def test_twin_subtrees_fold_once(self, setting):
        model = _twin_subtree_model()
        if setting == "deterministic":
            kernel = _TripleKernel(model.deterministic(), limit=float("inf"))
        else:
            kernel = _ProbKernel(model, limit=float("inf"))
        folds = []
        fold = kernel._fold

        def counting_fold(*args):
            folds.append(args)
            return fold(*args)

        kernel._fold = counting_fold
        kernel.compute(model.tree.root)
        # 7 nodes, but only 4 distinct structures: the two BAS decorations,
        # the AND subtree and the OR root.  The second AND subtree is a memo
        # hit, so only the first AND and the root fold a child in.
        assert len(kernel.memo) == 4
        assert len(folds) == 2

    def test_memo_hits_do_not_change_results(self):
        model = _twin_subtree_model().deterministic()
        assert pareto_front_treelike(model).values() == \
            enumerate_pareto_front(model).values()

    @pytest.mark.parametrize("seed", range(5))
    def test_memoised_front_matches_enumeration(self, seed):
        model = make_random_tree(seed, max_bas=5, treelike=True).deterministic()
        assert pareto_front_treelike(model).values() == \
            enumerate_pareto_front(model).values()


class TestWitnessTieBreak:
    """DgC and EDgC return the most damaging point of the root's 2-D front,
    and the least costly attack among equal damages.  Among ε-equal attacks
    the cheapest represents the point, even when it needs more BASs."""

    @pytest.mark.parametrize("budget,expected", [
        (0.2, (0.0, frozenset())),
        (0.3, (1.0, frozenset({"b", "c"}))),
        (10.0, (1.0, frozenset({"b", "c"}))),
    ])
    def test_dgc(self, budget, expected):
        model = _epsilon_tie_model().deterministic()
        assert max_damage_given_cost_treelike(model, budget) == expected

    @pytest.mark.parametrize("budget,expected", [
        (0.2, (0.0, frozenset())),
        (0.3, (1.0, frozenset({"b", "c"}))),
        (10.0, (1.0, frozenset({"b", "c"}))),
    ])
    def test_edgc(self, budget, expected):
        model = _epsilon_tie_model()
        assert max_expected_damage_given_cost_treelike(model, budget) == expected


class TestFoldAgainstEnumeration:
    """The fold keeps every non-dominated combination and only those:
    values match full enumeration and every witness has its claimed
    attributes, on trees large enough for multi-point staircases."""

    @pytest.mark.parametrize("seed", range(15))
    def test_front_identical(self, seed):
        model = make_random_tree(seed, max_bas=10, treelike=True).deterministic()
        front = pareto_front_treelike(model)
        assert front.values() == enumerate_pareto_front(model).values()
        for point in front:
            cost, damage, reached = evaluate_attack(model, point.attack)
            assert (cost, damage, reached) == (
                point.cost, point.damage, point.reaches_root
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_dgc_identical_across_budgets(self, seed):
        model = make_random_tree(seed, max_bas=10, treelike=True).deterministic()
        for budget in (0.0, 3.0, 7.0, 15.0, float("inf")):
            value, witness = max_damage_given_cost_treelike(model, budget)
            assert value == enumerate_max_damage_given_cost(model, budget)[0]
            cost, damage, _ = evaluate_attack(model, witness)
            assert cost <= budget and damage == value

    def test_budget_pruning_identical(self):
        model = make_random_tree(7, max_bas=10, treelike=True).deterministic()
        full = enumerate_pareto_front(model).values()
        for budget in (0.0, 2.0, 5.0, 9.0):
            pruned = pareto_front_treelike(model, budget=budget)
            assert pruned.values() == [v for v in full if v[0] <= budget]
