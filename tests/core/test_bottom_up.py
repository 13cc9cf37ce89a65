"""Tests for the deterministic bottom-up solver (Section VI, Theorems 3–5)."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacktree.binarize import binarize_cd
from repro.attacktree.catalog import data_server, factory, knapsack_like_chain, panda_iot
from repro.core.bilp import pareto_front_bilp
from repro.core.bottom_up import (
    AttributedAttack,
    max_damage_given_cost_treelike,
    min_cost_given_damage_treelike,
    node_pareto_front,
    pareto_front_treelike,
)
from repro.core.enumerative import (
    enumerate_max_damage_given_cost,
    enumerate_min_cost_given_damage,
    enumerate_pareto_front,
)
from repro.core.semantics import attack_cost, attack_damage

from ..conftest import make_random_tree


def triples(front):
    """Project AttributedAttack lists to sorted (cost, damage, bit) triples."""
    return sorted((item.cost, item.damage, 1.0 if item.reached else 0.0) for item in front)


class TestExample3To5:
    """The incomplete fronts computed in Examples 3–5 of the paper."""

    def test_bas_fronts(self):
        model = factory()
        assert triples(node_pareto_front(model, "pb")) == [(0, 0, 0), (3, 0, 1)]
        assert triples(node_pareto_front(model, "fd")) == [(0, 0, 0), (2, 10, 1)]
        assert triples(node_pareto_front(model, "ca")) == [(0, 0, 0), (1, 0, 1)]

    def test_dr_front_example4(self):
        """At dr the triple (3, 0, 0) is infeasible and discarded."""
        model = factory()
        assert triples(node_pareto_front(model, "dr")) == [
            (0, 0, 0), (2, 10, 0), (5, 110, 1),
        ]

    def test_root_front_example5(self):
        """Example 5: at the root, (2, 10, 0) and (6, 310, 1) are infeasible
        (dominated) and are not part of C^D_∞(ps)."""
        model = factory()
        front = triples(node_pareto_front(model, "ps"))
        assert front == [(0, 0, 0), (1, 200, 1), (3, 210, 1), (5, 310, 1)]

    def test_cdpf_projection_example5(self):
        front = pareto_front_treelike(factory())
        assert front.values() == [(0, 0), (1, 200), (3, 210), (5, 310)]


class TestWitnesses:
    def test_witness_attacks_achieve_reported_values(self):
        model = panda_iot().deterministic()
        for point in pareto_front_treelike(model):
            assert attack_cost(model, point.attack) == pytest.approx(point.cost)
            assert attack_damage(model, point.attack) == pytest.approx(point.damage)

    def test_dgc_witness(self):
        model = factory()
        value, witness = max_damage_given_cost_treelike(model, 2)
        assert value == 200
        assert witness == frozenset({"ca"})

    def test_cgd_witness(self):
        model = factory()
        cost, witness = min_cost_given_damage_treelike(model, 300)
        assert cost == 5
        assert attack_damage(model, witness) >= 300


class TestDgCTieBreak:
    """Damage ties must break towards the least-cost (then smallest) witness."""

    @staticmethod
    def _tied_model():
        """AND root: {a} and {a, b} both deal damage 10, at costs 1 and 3."""
        from repro.attacktree.builder import AttackTreeBuilder

        builder = AttackTreeBuilder()
        builder.bas("a", cost=1.0, damage=10.0)
        builder.bas("b", cost=2.0, damage=0.0)
        builder.and_gate("root", ["a", "b"], damage=0.0)
        return builder.build_cd(root="root")

    def test_tie_broken_towards_cheapest_witness(self):
        model = self._tied_model()
        # The root front holds (1, 10, not-reached) and (3, 10, reached);
        # DgC must not return the needlessly expensive reached witness.
        assert max_damage_given_cost_treelike(model, 5) == (10.0, frozenset({"a"}))

    def test_tie_break_stable_under_tight_budget(self):
        model = self._tied_model()
        assert max_damage_given_cost_treelike(model, 1) == (10.0, frozenset({"a"}))

    @staticmethod
    def _exact_tie_model(children):
        """OR root over {a} and AND g over {b, c}: both attacks cost 0.5
        and deal the root's damage 1 — an exact (cost, damage) tie."""
        from repro.attacktree.builder import AttackTreeBuilder

        builder = AttackTreeBuilder()
        builder.bas("a", cost=0.5, damage=0.0, probability=1.0)
        builder.bas("b", cost=0.25, damage=0.0, probability=1.0)
        builder.bas("c", cost=0.25, damage=0.0, probability=1.0)
        builder.and_gate("g", ["b", "c"], damage=0.0)
        builder.or_gate("root", children, damage=1.0)
        return builder.build_cdp(root="root")

    @pytest.mark.parametrize("children", [["a", "g"], ["g", "a"]])
    def test_exact_tie_keeps_the_fewest_bas_witness(self, children):
        """An exact (cost, damage) tie breaks towards the fewest BASs in
        both settings, whatever order the children are declared in."""
        from repro.attacktree.transform import strip_probabilities
        from repro.core.bottom_up_prob import (
            max_expected_damage_given_cost_treelike,
        )

        model = self._exact_tie_model(children)
        assert max_damage_given_cost_treelike(
            strip_probabilities(model), 1.0
        ) == (1.0, frozenset({"a"}))
        assert max_expected_damage_given_cost_treelike(model, 1.0) == (
            1.0, frozenset({"a"})
        )


class TestBudgetPruning:
    def test_budget_zero(self):
        value, witness = max_damage_given_cost_treelike(factory(), 0)
        assert value == 0 and witness == frozenset()

    def test_negative_budget(self):
        value, witness = max_damage_given_cost_treelike(factory(), -1)
        assert value == 0 and witness is None

    def test_budget_restricts_front(self):
        front = pareto_front_treelike(factory(), budget=3)
        assert front.values() == [(0, 0), (1, 200), (3, 210)]

    def test_unachievable_threshold(self):
        cost, witness = min_cost_given_damage_treelike(factory(), 10_000)
        assert cost is None and witness is None

    @pytest.mark.parametrize("budget", [0, 1, 2, 3, 4, 5, 6, 10])
    def test_dgc_agrees_with_enumeration_on_factory(self, budget):
        assert max_damage_given_cost_treelike(factory(), budget)[0] == \
            enumerate_max_damage_given_cost(factory(), budget)[0]


class TestErrorsAndEdgeCases:
    def test_dag_rejected(self):
        # Node fronts refuse a DAG; the root front folds it with labels.
        with pytest.raises(ValueError, match="treelike"):
            node_pareto_front(data_server())
        assert pareto_front_treelike(data_server()).values_equal(
            pareto_front_bilp(data_server())
        )

    def test_unknown_node_rejected(self):
        with pytest.raises(KeyError):
            node_pareto_front(factory(), "nope")

    def test_negative_budget_rejected_in_node_front(self):
        with pytest.raises(ValueError, match="non-negative"):
            node_pareto_front(factory(), budget=-2)

    def test_attributed_attack_triple_property(self):
        item = AttributedAttack(cost=2, damage=10, reached=True, attack=frozenset({"x"}))
        assert item.triple == (2, 10, 1.0)

    def test_exponential_front_of_example6(self):
        """Example 6 / Theorem 5: the front of the 2^i chain has 2^n points."""
        model = knapsack_like_chain(4)
        front = pareto_front_treelike(model)
        assert len(front) == 2 ** 4
        assert front.values()[:4] == [(0, 0), (1, 1), (2, 2), (3, 3)]


class TestAgreementWithEnumeration:
    @pytest.mark.parametrize("seed", range(10))
    def test_front_matches_enumeration_on_random_trees(self, seed):
        model = make_random_tree(seed, treelike=True).deterministic()
        assert pareto_front_treelike(model).values() == \
            enumerate_pareto_front(model).values()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2000),
           budget=st.floats(min_value=0, max_value=30, allow_nan=False))
    def test_dgc_matches_enumeration(self, seed, budget):
        model = make_random_tree(seed, max_bas=5, treelike=True).deterministic()
        assert max_damage_given_cost_treelike(model, budget)[0] == pytest.approx(
            enumerate_max_damage_given_cost(model, budget)[0]
        )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2000),
           threshold=st.floats(min_value=0, max_value=40, allow_nan=False))
    def test_cgd_matches_enumeration(self, seed, threshold):
        model = make_random_tree(seed, max_bas=5, treelike=True).deterministic()
        mine = min_cost_given_damage_treelike(model, threshold)[0]
        oracle = enumerate_min_cost_given_damage(model, threshold)[0]
        if oracle is None:
            assert mine is None
        else:
            assert mine == pytest.approx(oracle)

    @pytest.mark.parametrize("seed", range(5))
    def test_binarised_tree_gives_same_front(self, seed):
        model = make_random_tree(seed, treelike=True).deterministic()
        binary, _ = binarize_cd(model)
        assert pareto_front_treelike(model).values() == \
            pareto_front_treelike(binary).values()

    def test_panda_front_monotone(self):
        front = pareto_front_treelike(panda_iot().deterministic())
        damages = front.damages()
        assert damages == sorted(damages)
