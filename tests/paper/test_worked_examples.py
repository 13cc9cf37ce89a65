"""Every worked example and numbered claim of the paper, as executable tests.

These tests are the reproduction oracle: each one cites the example/theorem
it checks.  Where the computed value deviates from a printed value, the test
documents why (see also EXPERIMENTS.md).
"""


import pytest

from repro.attacktree import catalog
from repro.attacktree.node import NodeType
from repro.core.bilp import pareto_front_bilp
from repro.core.bottom_up import (
    max_damage_given_cost_treelike,
    node_pareto_front,
    pareto_front_treelike,
)
from repro.core.bottom_up_prob import (
    node_pareto_front_probabilistic,
    pareto_front_treelike_probabilistic,
)
from repro.core.problems import capability_matrix
from repro.core.semantics import attack_cost, attack_damage
from repro.probability.actualization import actualization_distribution, expected_damage


class TestFigure1AndExample1:
    """Fig. 1 / Example 1: the factory cd-AT and its ĉ / d̂ table."""

    def test_tree_structure(self):
        model = catalog.factory()
        assert model.tree.node_type("ps") is NodeType.OR
        assert model.tree.node_type("dr") is NodeType.AND
        assert set(model.tree.children("dr")) == {"pb", "fd"}
        assert set(model.tree.children("ps")) == {"ca", "dr"}

    @pytest.mark.parametrize(
        "attack,cost,damage",
        [
            (set(), 0, 0),
            ({"fd"}, 2, 10),
            ({"pb"}, 3, 0),
            ({"pb", "fd"}, 5, 310),
            ({"ca"}, 1, 200),
            ({"ca", "fd"}, 3, 210),
            ({"ca", "pb"}, 4, 200),
            ({"ca", "pb", "fd"}, 6, 310),
        ],
    )
    def test_example1_table(self, attack, cost, damage):
        model = catalog.factory()
        assert attack_cost(model, attack) == cost
        assert attack_damage(model, attack) == damage


class TestExample2AndFigure3:
    """Example 2 / Fig. 3: the Pareto front and the DgC query for U = 2."""

    def test_pareto_front(self):
        front = pareto_front_treelike(catalog.factory())
        assert front.values() == [(0, 0), (1, 200), (3, 210), (5, 310)]

    def test_dgc_for_budget_2(self):
        assert max_damage_given_cost_treelike(catalog.factory(), 2)[0] == 200

    def test_introduction_domination_claim(self):
        """Introduction: {ca} does damage 200 for cost 1, which is preferable
        over {fd} which does 10 damage for cost 2."""
        model = catalog.factory()
        assert attack_cost(model, {"ca"}) < attack_cost(model, {"fd"})
        assert attack_damage(model, {"ca"}) > attack_damage(model, {"fd"})


class TestExamples3To5:
    """Examples 3–5: the DTrip fronts propagated bottom-up."""

    def test_example3_bas_and_gate_combination(self):
        model = catalog.factory()
        dr_candidates = {
            (item.cost, item.damage, item.reached)
            for item in node_pareto_front(model, "dr")
        }
        # Example 4 keeps {(0,0,0), (2,10,0), (5,110,1)} and discards (3,0,0).
        assert dr_candidates == {(0, 0, False), (2, 10, False), (5, 110, True)}

    def test_example5_root_set(self):
        model = catalog.factory()
        root_front = {
            (item.cost, item.damage, item.reached)
            for item in node_pareto_front(model, "ps")
        }
        assert root_front == {
            (0, 0, False), (1, 200, True), (3, 210, True), (5, 310, True),
        }


class TestExample6AndTheorem5:
    """Example 6: the OR chain with costs/damages 2^i has a front of size 2^n."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_front_size_is_exponential(self, n):
        front = pareto_front_treelike(catalog.knapsack_like_chain(n))
        assert len(front) == 2 ** n
        assert front.values() == [(float(k), float(k)) for k in range(2 ** n)]


class TestExample7:
    """Example 7: the BILP formulation of the factory AT."""

    def test_bilp_solves_factory(self):
        front = pareto_front_bilp(catalog.factory())
        assert front.values() == [(0, 0), (1, 200), (3, 210), (5, 310)]


class TestExamples8And9:
    """Examples 8–9: actualized attacks and expected damage."""

    def test_example8_distribution(self):
        model = catalog.factory_probabilistic()
        distribution = dict(actualization_distribution(model, {"pb", "fd"}))
        assert distribution[frozenset()] == pytest.approx(0.06)
        assert distribution[frozenset({"fd"})] == pytest.approx(0.54)
        assert distribution[frozenset({"pb"})] == pytest.approx(0.04)
        assert distribution[frozenset({"pb", "fd"})] == pytest.approx(0.36)

    def test_example9_expected_damage(self):
        """The paper prints 112, obtained as 0.06·0 + 0.54·0 + 0.04·10 + 0.36·310;
        with Example 1's damage table the outcome {fd} (probability 0.54) does
        damage 10 and {pb} (probability 0.04) does 0, giving 117.  We reproduce
        the definition, not the printed slip."""
        model = catalog.factory_probabilistic()
        value = expected_damage(model, {"pb", "fd"})
        assert value == pytest.approx(0.54 * 10 + 0.36 * 310)
        assert value == pytest.approx(117.0)


class TestExample10:
    """Example 10: deterministic vs probabilistic fronts of the OR pair."""

    def test_deterministic_table(self):
        model = catalog.example10_or_pair().deterministic()
        w_front = {
            (item.cost, item.damage, item.reached)
            for item in node_pareto_front(model, "w")
        }
        assert w_front == {(0, 0, False), (1, 1, True)}

    def test_probabilistic_table(self):
        model = catalog.example10_or_pair()
        w_front = {
            (item.cost, round(item.expected_damage, 6), round(item.reach_probability, 6))
            for item in node_pareto_front_probabilistic(model, "w")
        }
        assert w_front == {(0, 0.0, 0.0), (1, 0.5, 0.5), (2, 0.75, 0.75)}

    def test_redundant_attempt_is_optimal_only_probabilistically(self):
        model = catalog.example10_or_pair()
        probabilistic = pareto_front_treelike_probabilistic(model)
        deterministic = pareto_front_treelike(model.deterministic())
        assert (2.0, 0.75) in probabilistic.values()
        assert all(cost <= 1 for cost, _ in deterministic.values())


class TestTableI:
    """Table I: the algorithmic coverage matrix."""

    def test_capability_matrix(self):
        matrix = capability_matrix()
        assert matrix[("deterministic", "tree")].startswith("bottom-up")
        assert "BILP (Theorem 6)" in matrix[("deterministic", "dag")]
        assert matrix[("probabilistic", "tree")].startswith("bottom-up")
        assert "open" in matrix[("probabilistic", "dag")]


class TestSectionIVModelChoices:
    """Section IV: damage on internal nodes is essential; Fig. 2's rewrite."""

    def test_attack_not_reaching_top_still_does_damage(self):
        """The ATM-robbery motivation: non-successful attacks damage the system."""
        model = catalog.factory()
        assert not model.tree.is_successful({"fd"})
        assert attack_damage(model, {"fd"}) == 10

    def test_moving_internal_damage_to_dummy_bas_changes_semantics(self):
        """Fig. 2 (right): putting the damage on a dummy BAS would let cost 1
        already cause the damage — unlike the original AND semantics."""
        from repro.attacktree.builder import AttackTreeBuilder

        wrong = AttackTreeBuilder()
        wrong.bas("a", cost=1)
        wrong.bas("b", cost=1)
        wrong.bas("dummy", cost=1, damage=1)
        wrong.and_gate("root", ["a", "b", "dummy"])
        wrong_model = wrong.build_cd(root="root")
        assert attack_damage(wrong_model, {"dummy"}) == 1  # damage for cost 1

        correct = AttackTreeBuilder()
        correct.bas("a", cost=1)
        correct.bas("b", cost=1)
        correct.bas("dummy", cost=1)
        correct.and_gate("root", ["a", "b", "dummy"], damage=1)
        correct_model = correct.build_cd(root="root")
        assert attack_damage(correct_model, {"dummy"}) == 0
        assert attack_damage(correct_model, {"a", "b", "dummy"}) == 1
