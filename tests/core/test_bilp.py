"""Tests for the BILP translation (Section VII, Theorems 6–7)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacktree.catalog import data_server, factory, panda_iot
from repro.core.bilp import (
    build_structure_program,
    cost_objective,
    damage_objective,
    max_damage_given_cost_bilp,
    min_cost_given_damage_bilp,
    pareto_front_bilp,
)
from repro.core.bottom_up import pareto_front_treelike
from repro.core.enumerative import (
    enumerate_max_damage_given_cost,
    enumerate_min_cost_given_damage,
    enumerate_pareto_front,
)
from repro.core.semantics import attack_cost, attack_damage
from repro.milp.model import ConstraintSense

from ..conftest import make_random_tree


class TestProgramConstruction:
    def test_one_variable_per_node(self):
        model = factory()
        program = build_structure_program(model)
        assert len(program.variables) == len(model.tree)

    def test_example7_constraint_counts(self):
        """Example 7: the factory AT yields two AND constraints (one per
        child of dr) and one OR constraint (for ps)."""
        program = build_structure_program(factory())
        and_constraints = [c for c in program.constraints if c.name.startswith("and:")]
        or_constraints = [c for c in program.constraints if c.name.startswith("or:")]
        assert len(and_constraints) == 2
        assert len(or_constraints) == 1

    def test_all_constraints_are_less_equal_zero(self):
        program = build_structure_program(data_server())
        assert all(c.sense is ConstraintSense.LESS_EQUAL and c.rhs == 0.0
                   for c in program.constraints)

    def test_objective_coefficients(self):
        model = factory()
        cost = cost_objective(model)
        damage = damage_objective(model)
        assert cost.expression.coefficients == {"y:ca": 1.0, "y:pb": 3.0, "y:fd": 2.0}
        assert damage.expression.coefficients == {
            "y:fd": 10.0, "y:dr": 100.0, "y:ps": 200.0,
        }

    def test_structure_function_is_feasible_assignment(self):
        """Setting y_v = S(x, v) satisfies every constraint (Theorem 6 proof)."""
        model = data_server()
        program = build_structure_program(model)
        attack = {"b6", "b8", "b11", "b12"}
        reached = model.tree.structure_function(attack)
        assignment = {f"y:{node}": (1.0 if hit else 0.0) for node, hit in reached.items()}
        assert program.is_feasible(assignment)


class TestParetoFrontBilp:
    def test_factory_matches_bottom_up(self):
        assert pareto_front_bilp(factory()).values() == \
            pareto_front_treelike(factory()).values()

    def test_data_server_matches_enumeration(self):
        assert pareto_front_bilp(data_server()).values() == \
            enumerate_pareto_front(data_server()).values()

    def test_panda_matches_bottom_up(self):
        model = panda_iot().deterministic()
        assert pareto_front_bilp(model).values() == \
            pareto_front_treelike(model).values()

    def test_witnesses_achieve_reported_values(self):
        model = data_server()
        for point in pareto_front_bilp(model):
            if point.attack is None:
                continue
            assert attack_cost(model, point.attack) == pytest.approx(point.cost)
            assert attack_damage(model, point.attack) == pytest.approx(point.damage)

    @staticmethod
    def _assert_fronts_close(mine, oracle):
        assert len(mine) == len(oracle)
        for a, b in zip(mine, oracle):
            assert a == pytest.approx(b)

    @pytest.mark.parametrize("seed", range(8))
    def test_agreement_with_enumeration_on_random_dags(self, seed):
        model = make_random_tree(seed, max_bas=5, treelike=False).deterministic()
        self._assert_fronts_close(
            pareto_front_bilp(model).values(), enumerate_pareto_front(model).values()
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_agreement_with_bottom_up_on_random_trees(self, seed):
        model = make_random_tree(seed, max_bas=5, treelike=True).deterministic()
        self._assert_fronts_close(
            pareto_front_bilp(model).values(), pareto_front_treelike(model).values()
        )


class TestSingleObjectiveBilp:
    def test_dgc_factory(self):
        value, witness = max_damage_given_cost_bilp(factory(), 2)
        assert value == 200 and witness == frozenset({"ca"})

    def test_dgc_negative_budget(self):
        value, witness = max_damage_given_cost_bilp(factory(), -1)
        assert value == 0.0 and witness is None

    def test_dgc_data_server(self):
        value, witness = max_damage_given_cost_bilp(data_server(), 600)
        assert value == pytest.approx(60.0)
        assert witness == frozenset({"b6", "b8", "b11", "b12"})

    def test_cgd_factory(self):
        cost, witness = min_cost_given_damage_bilp(factory(), 300)
        assert cost == 5 and witness == frozenset({"pb", "fd"})

    def test_cgd_unachievable(self):
        cost, witness = min_cost_given_damage_bilp(factory(), 10_000)
        assert cost is None and witness is None

    def test_cgd_zero_threshold(self):
        cost, witness = min_cost_given_damage_bilp(factory(), 0)
        assert cost == 0 and witness == frozenset()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000),
           budget=st.floats(min_value=0, max_value=30, allow_nan=False))
    def test_dgc_matches_enumeration_on_random_dags(self, seed, budget):
        model = make_random_tree(seed, max_bas=5, treelike=False).deterministic()
        assert max_damage_given_cost_bilp(model, budget)[0] == pytest.approx(
            enumerate_max_damage_given_cost(model, budget)[0]
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000),
           threshold=st.floats(min_value=0, max_value=40, allow_nan=False))
    def test_cgd_matches_enumeration_on_random_dags(self, seed, threshold):
        model = make_random_tree(seed, max_bas=5, treelike=False).deterministic()
        mine = min_cost_given_damage_bilp(model, threshold)[0]
        oracle = enumerate_min_cost_given_damage(model, threshold)[0]
        if oracle is None:
            assert mine is None
        else:
            assert mine == pytest.approx(oracle)
