"""Unit tests for the enumerative baseline (the paper's comparison method).

Enumeration evaluates attacks from bitmask tables up to ``_TABLE_LIMIT``
BASs and attack by attack beyond it; the semantic tests run on both paths.
"""

import pytest

from repro.attacktree.builder import AttackTreeBuilder
from repro.attacktree.catalog import factory, factory_probabilistic, example10_or_pair
from repro.core import enumerative
from repro.core.bottom_up_prob import pareto_front_treelike_probabilistic
from repro.core.enumerative import (
    enumerate_max_damage_given_cost,
    enumerate_max_expected_damage_given_cost,
    enumerate_min_cost_given_damage,
    enumerate_min_cost_given_expected_damage,
    enumerate_pareto_front,
    enumerate_pareto_front_probabilistic,
)

from ..conftest import make_random_tree


@pytest.fixture(params=["tables", "per-attack"])
def evaluation_path(request, monkeypatch):
    """Run a test on the table path and on the per-attack fallback."""
    if request.param == "per-attack":
        monkeypatch.setattr(enumerative, "_TABLE_LIMIT", 0)
    return request.param


def small_probabilistic_dag():
    """A 4-BAS DAG: the shared BAS ``s`` feeds two AND gates."""
    builder = AttackTreeBuilder()
    builder.bas("s", cost=2, probability=0.5)
    builder.bas("a", cost=1, probability=0.8)
    builder.bas("b", cost=3, probability=0.6)
    builder.bas("c", cost=2, probability=0.9)
    builder.and_gate("g1", ["s", "a"], damage=10)
    builder.and_gate("g2", ["s", "b"], damage=20)
    builder.or_gate("extra", ["c"], damage=5)
    builder.or_gate("root", ["g1", "g2", "extra"], damage=8)
    return builder.build_cdp(root="root")


@pytest.mark.usefixtures("evaluation_path")
class TestDeterministicFront:
    def test_factory_front_matches_example2(self):
        front = enumerate_pareto_front(factory())
        assert front.values() == [(0, 0), (1, 200), (3, 210), (5, 310)]

    def test_front_carries_witness_attacks(self):
        front = enumerate_pareto_front(factory())
        witnesses = {point.attack for point in front}
        assert frozenset({"ca"}) in witnesses
        assert frozenset({"pb", "fd"}) in witnesses

    def test_front_records_top_reachability(self):
        front = enumerate_pareto_front(factory())
        by_cost = {point.cost: point for point in front}
        assert by_cost[0].reaches_root is False
        assert by_cost[1].reaches_root is True


@pytest.mark.usefixtures("evaluation_path")
class TestDeterministicSingleObjective:
    def test_dgc_example2(self):
        value, witness = enumerate_max_damage_given_cost(factory(), 2)
        assert value == 200
        assert witness == frozenset({"ca"})

    def test_dgc_zero_budget(self):
        value, witness = enumerate_max_damage_given_cost(factory(), 0)
        assert value == 0
        assert witness == frozenset()

    def test_dgc_negative_budget(self):
        value, witness = enumerate_max_damage_given_cost(factory(), -1)
        assert value == 0 and witness is None

    def test_cgd(self):
        cost, witness = enumerate_min_cost_given_damage(factory(), 300)
        assert cost == 5
        assert witness == frozenset({"pb", "fd"})

    def test_cgd_unachievable(self):
        cost, witness = enumerate_min_cost_given_damage(factory(), 1000)
        assert cost is None and witness is None

    def test_cgd_zero_threshold(self):
        cost, witness = enumerate_min_cost_given_damage(factory(), 0)
        assert cost == 0 and witness == frozenset()


@pytest.mark.usefixtures("evaluation_path")
class TestProbabilistic:
    def test_example10_front(self):
        front = enumerate_pareto_front_probabilistic(example10_or_pair())
        assert front.values() == [(0, 0), (1, 0.5), (2, 0.75)]

    def test_factory_probabilistic_front_contains_known_point(self):
        """Example 9: d̂_E(0,1,1) = 112 — that attack costs 5."""
        front = enumerate_pareto_front_probabilistic(factory_probabilistic())
        assert any(
            point.cost == 5 and point.damage == pytest.approx(112.0)
            for point in front
        ) or front.max_damage_given_cost(5) >= 112

    def test_edgc(self):
        value, witness = enumerate_max_expected_damage_given_cost(example10_or_pair(), 1)
        assert value == pytest.approx(0.5)
        assert witness in {frozenset({"v1"}), frozenset({"v2"})}

    def test_edgc_prefers_both_children(self):
        value, witness = enumerate_max_expected_damage_given_cost(example10_or_pair(), 2)
        assert value == pytest.approx(0.75)
        assert witness == frozenset({"v1", "v2"})

    def test_cged(self):
        cost, witness = enumerate_min_cost_given_expected_damage(example10_or_pair(), 0.6)
        assert cost == 2
        assert witness == frozenset({"v1", "v2"})

    def test_cged_unachievable(self):
        cost, witness = enumerate_min_cost_given_expected_damage(example10_or_pair(), 0.9)
        assert cost is None and witness is None


@pytest.mark.usefixtures("evaluation_path")
class TestProbabilisticDag:
    """The probabilistic-DAG cell (the paper's open problem), where
    enumeration is the only exact method."""

    def test_agrees_with_bottom_up_on_treelike_models(self):
        model = example10_or_pair()
        exact = enumerate_pareto_front_probabilistic(model)
        bottom_up = pareto_front_treelike_probabilistic(model)
        assert exact.values() == pytest.approx(bottom_up.values())

    def test_small_dag_front_is_consistent(self):
        front = enumerate_pareto_front_probabilistic(small_probabilistic_dag())
        assert front.is_consistent()
        assert len(front) >= 3
        # Shared-BAS correlation: the most expensive point attempts everything.
        assert front.values()[-1][0] == pytest.approx(8.0)

    def test_shared_bas_correlation_handled(self):
        """Attack {s, a, b} reaches g1 and g2 only when the *same* s
        succeeds; the naive independence recursion would overcount."""
        model = small_probabilistic_dag()
        damage = {
            attack: expected
            for attack, _, expected, _ in enumerative._evaluated_probabilistic(model)
        }
        # P(g1) = 0.5*0.8 = 0.4, P(g2) = 0.5*0.6 = 0.3,
        # P(root) = P(g1 or g2) with shared s = 0.5*(1 - 0.2*0.4) = 0.46.
        expected = 10 * 0.4 + 20 * 0.3 + 8 * 0.46
        assert damage[frozenset({"s", "a", "b"})] == pytest.approx(expected)
        # The naive formula would give P(root) = 1 - (1-0.4)(1-0.3) = 0.58.
        naive_root = 1 - (1 - 0.4) * (1 - 0.3)
        assert expected < 10 * 0.4 + 20 * 0.3 + 8 * naive_root

    def test_max_expected_damage(self):
        value, witness = enumerate_max_expected_damage_given_cost(
            small_probabilistic_dag(), budget=3
        )
        # Within budget 3: {s, a} (cost 3) gives 0.4*10 + 0.4*8 = 7.2;
        # {c} (cost 2) gives 0.9*5 + 0.9*8 = 11.7; {a,c} adds nothing to c.
        assert value == pytest.approx(11.7)
        assert witness == frozenset({"c"})

    def test_max_expected_damage_zero_budget(self):
        value, witness = enumerate_max_expected_damage_given_cost(
            small_probabilistic_dag(), budget=0
        )
        assert value == 0.0
        assert witness == frozenset()


class TestEvaluationPathsAgree:
    """The zeta-transform tables and per-attack actualization give the
    same attacks, costs, expected damages and root reachability."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_probabilistic_dag(self, seed, monkeypatch):
        model = make_random_tree(seed, max_bas=8, treelike=False)
        tables = list(enumerative._evaluated_probabilistic(model))
        monkeypatch.setattr(enumerative, "_TABLE_LIMIT", 0)
        per_attack = list(enumerative._evaluated_probabilistic(model))
        assert [row[0] for row in tables] == [row[0] for row in per_attack]
        for (_, cost, damage, reached), (_, cost2, damage2, reached2) in zip(
            tables, per_attack
        ):
            assert (cost, reached) == (cost2, reached2)
            assert damage == pytest.approx(damage2, abs=1e-9)
