"""Tests for the multilinear reach-polynomial extension (probabilistic DAGs)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacktree.builder import AttackTreeBuilder
from repro.attacktree.catalog import data_server, example10_or_pair, factory_probabilistic
from repro.attacktree.transform import with_unit_probabilities
from repro.core.bottom_up_prob import pareto_front_treelike_probabilistic
from repro.core.enumerative import enumerate_pareto_front_probabilistic
from repro.core.semantics import all_attacks
from repro.extensions.polynomial import (
    MultilinearPolynomial,
    expected_damage_polynomial,
    pareto_front_probabilistic_polynomial,
    reach_polynomials,
)
from repro.probability.actualization import expected_damage

from ..conftest import make_random_tree


class TestMultilinearPolynomial:
    def test_constant_and_variable(self):
        assert MultilinearPolynomial.constant(3.0).evaluate({}) == 3.0
        x = MultilinearPolynomial.variable("a")
        assert x.evaluate({"a": 0.4}) == pytest.approx(0.4)
        assert x.evaluate({}) == 0.0

    def test_addition_and_subtraction(self):
        a = MultilinearPolynomial.variable("a")
        b = MultilinearPolynomial.variable("b")
        poly = a + b - a
        assert poly == b

    def test_idempotent_multiplication(self):
        a = MultilinearPolynomial.variable("a")
        assert a * a == a  # x² = x

    def test_multiplication_distributes(self):
        a = MultilinearPolynomial.variable("a")
        b = MultilinearPolynomial.variable("b")
        product = (a + b) * (a + b)
        # (a + b)² = a + 2ab + b under idempotence.
        assert product.evaluate({"a": 1.0, "b": 0.0}) == pytest.approx(1.0)
        assert product.evaluate({"a": 1.0, "b": 1.0}) == pytest.approx(4.0)

    def test_complement(self):
        a = MultilinearPolynomial.variable("a")
        complement = a.complement()
        assert complement.evaluate({"a": 0.3}) == pytest.approx(0.7)

    def test_zero_coefficients_dropped(self):
        a = MultilinearPolynomial.variable("a")
        zero = a - a
        assert zero.monomial_count() == 0
        assert zero == MultilinearPolynomial.constant(0.0)

    def test_variables_and_repr(self):
        a = MultilinearPolynomial.variable("a")
        b = MultilinearPolynomial.variable("b")
        poly = a * b + MultilinearPolynomial.constant(2.0)
        assert poly.variables() == frozenset({"a", "b"})
        assert "a·b" in repr(poly)


class TestReachPolynomials:
    def test_or_gate_inclusion_exclusion(self):
        model = example10_or_pair()
        polynomials = reach_polynomials(model.tree)
        w = polynomials["w"]
        # 1 − (1 − v1)(1 − v2) = v1 + v2 − v1·v2.
        assert w.evaluate({"v1": 0.5, "v2": 0.5}) == pytest.approx(0.75)
        assert w.monomial_count() == 3

    def test_and_gate_product(self):
        model = factory_probabilistic()
        polynomials = reach_polynomials(model.tree)
        assert polynomials["dr"].evaluate({"pb": 0.4, "fd": 0.9}) == pytest.approx(0.36)

    def test_shared_bas_idempotence_on_dag(self):
        """The crux of the open problem: with a shared BAS the polynomial
        method must not double-count it."""
        builder = AttackTreeBuilder()
        builder.bas("s", cost=1, probability=0.5)
        builder.bas("a", cost=1, probability=0.8)
        builder.bas("b", cost=1, probability=0.6)
        builder.and_gate("g1", ["s", "a"])
        builder.and_gate("g2", ["s", "b"])
        builder.or_gate("root", ["g1", "g2"])
        model = builder.build_cdp(root="root")
        polynomials = reach_polynomials(model.tree)
        # P(root) = P(s·a ∨ s·b) = p_s(p_a + p_b − p_a·p_b), NOT the naive
        # independent-OR value.
        value = polynomials["root"].evaluate({"s": 0.5, "a": 0.8, "b": 0.6})
        assert value == pytest.approx(0.5 * (0.8 + 0.6 - 0.48))
        naive = 0.4 + 0.3 - 0.4 * 0.3
        assert value != pytest.approx(naive)

    def test_data_server_polynomials_are_small(self):
        polynomials = reach_polynomials(data_server().tree)
        assert max(p.monomial_count() for p in polynomials.values()) <= 64

    def test_size_guard(self):
        with pytest.raises(ValueError, match="monomials"):
            reach_polynomials(data_server().tree, max_monomials=2)


class TestExpectedDamagePolynomial:
    def test_matches_actualization_enumeration_on_dag(self):
        model = with_unit_probabilities(data_server()).deterministic().with_probabilities(
            {b: 0.7 for b in data_server().tree.basic_attack_steps}
        )
        polynomials = reach_polynomials(model.tree)
        for attack in [frozenset({"b6", "b8"}), frozenset({"b6", "b7", "b8"}),
                       frozenset({"b6", "b8", "b11", "b12"})]:
            assert expected_damage_polynomial(model, attack, polynomials) == pytest.approx(
                expected_damage(model, attack)
            )

    def test_matches_treelike_recursion_on_trees(self):
        model = factory_probabilistic()
        for attack in all_attacks(model):
            assert expected_damage_polynomial(model, attack) == pytest.approx(
                expected_damage(model, attack)
            )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2000), treelike=st.booleans())
    def test_matches_exact_semantics_on_random_models(self, seed, treelike):
        model = make_random_tree(seed, max_bas=4, treelike=treelike)
        polynomials = reach_polynomials(model.tree)
        for attack in all_attacks(model):
            assert expected_damage_polynomial(model, attack, polynomials) == pytest.approx(
                expected_damage(model, attack)
            )


class TestPolynomialCedpf:
    def test_matches_enumerative_exact_on_small_dag(self):
        builder = AttackTreeBuilder()
        builder.bas("s", cost=2, probability=0.5)
        builder.bas("a", cost=1, probability=0.8)
        builder.bas("b", cost=3, probability=0.6)
        builder.and_gate("g1", ["s", "a"], damage=10)
        builder.and_gate("g2", ["s", "b"], damage=20)
        builder.or_gate("root", ["g1", "g2"], damage=8)
        model = builder.build_cdp(root="root")
        fast = pareto_front_probabilistic_polynomial(model)
        slow = enumerate_pareto_front_probabilistic(model)
        assert len(fast) == len(slow)
        for a, b in zip(fast.values(), slow.values()):
            assert a == pytest.approx(b)

    def test_matches_bottom_up_on_treelike_models(self):
        model = example10_or_pair()
        assert pareto_front_probabilistic_polynomial(model).values() == pytest.approx(
            pareto_front_treelike_probabilistic(model).values()
        )

    def test_data_server_probabilistic_front(self):
        """The paper's open problem solved exactly on the Fig. 5 DAG with a
        uniform 0.8 success probability: a smoke check that the method scales
        to the case-study size (12 BASs, shared connection step)."""
        base = data_server()
        model = base.with_probabilities({b: 0.8 for b in base.tree.basic_attack_steps})
        front = pareto_front_probabilistic_polynomial(model)
        assert front.is_consistent()
        # The deterministic front dominates the expected-damage front pointwise.
        assert front.max_damage_given_cost(1281) <= 82.8 + 1e-9
        # With an unlimited budget the best attack is to attempt everything.
        total_cost = sum(model.cost.values())
        assert front.max_damage_given_cost(total_cost) == pytest.approx(
            expected_damage(model, frozenset(base.tree.basic_attack_steps)), abs=1e-6
        )

    def test_size_guard(self):
        from repro.attacktree.catalog import panda_iot

        with pytest.raises(ValueError, match="2\\^22"):
            pareto_front_probabilistic_polynomial(panda_iot(), max_bas=20)
