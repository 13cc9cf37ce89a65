"""Unit and property tests for the partial orders and Pareto filters."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pareto.poset import (
    dominates_pair,
    dominates_triple,
    is_antichain_pairs,
    merge_pair_sets,
    pareto_minimal_pairs,
    pareto_minimal_triples,
    strictly_dominates_pair,
    strictly_dominates_triple,
)

from ..conftest import cost_damage_pairs


class TestPairOrder:
    def test_cheaper_and_more_damaging_dominates(self):
        assert dominates_pair((1, 200), (2, 10))
        assert strictly_dominates_pair((1, 200), (2, 10))

    def test_equal_points_weakly_dominate_both_ways(self):
        assert dominates_pair((3, 5), (3, 5))
        assert not strictly_dominates_pair((3, 5), (3, 5))

    def test_incomparable_points(self):
        assert not dominates_pair((1, 10), (2, 20))
        assert not dominates_pair((2, 20), (1, 10))

    def test_example2_dominations(self):
        """The dominations listed in Example 2 of the paper."""
        assert strictly_dominates_pair((1, 200), (2, 10))
        assert strictly_dominates_pair((1, 200), (3, 0))
        assert strictly_dominates_pair((1, 200), (4, 200))
        assert strictly_dominates_pair((5, 310), (6, 310))


class TestTripleOrder:
    def test_third_component_matters(self):
        # (3, 0, 1) is NOT dominated by (0, 0, 0): it reaches the node.
        assert not dominates_triple((0, 0, 0), (3, 0, 1))
        # But (3, 0, 0) IS dominated by (0, 0, 0) (Example 4).
        assert dominates_triple((0, 0, 0), (3, 0, 0))

    def test_strict_vs_weak(self):
        assert dominates_triple((1, 5, 1), (1, 5, 1))
        assert not strictly_dominates_triple((1, 5, 1), (1, 5, 1))
        assert strictly_dominates_triple((1, 5, 1), (2, 5, 1))

    def test_probability_component(self):
        assert dominates_triple((1, 0.5, 0.75), (1, 0.5, 0.5))
        assert not dominates_triple((1, 0.5, 0.5), (1, 0.5, 0.75))


class TestParetoMinimalPairs:
    def test_example2_front(self):
        values = [(0, 0), (2, 10), (3, 0), (5, 310), (1, 200), (3, 210), (4, 200), (6, 310)]
        front = pareto_minimal_pairs(values, key=lambda v: v)
        assert sorted(front) == [(0, 0), (1, 200), (3, 210), (5, 310)]

    def test_duplicates_collapsed(self):
        front = pareto_minimal_pairs([(1, 5), (1, 5), (2, 7)], key=lambda v: v)
        assert sorted(front) == [(1, 5), (2, 7)]

    def test_empty_input(self):
        assert pareto_minimal_pairs([], key=lambda v: v) == []

    def test_single_point(self):
        assert pareto_minimal_pairs([(4, 4)], key=lambda v: v) == [(4, 4)]

    def test_key_function_respected(self):
        items = [{"c": 1, "d": 10}, {"c": 2, "d": 5}]
        front = pareto_minimal_pairs(items, key=lambda i: (i["c"], i["d"]))
        assert front == [items[0]]

    @settings(max_examples=100, deadline=None)
    @given(points=cost_damage_pairs())
    def test_result_is_antichain(self, points):
        front = pareto_minimal_pairs(points, key=lambda v: v)
        assert is_antichain_pairs(front)

    @settings(max_examples=100, deadline=None)
    @given(points=cost_damage_pairs())
    def test_front_is_exactly_the_undominated_inputs(self, points):
        """The paper's ``min X = {x | ∀x' ∈ X. x' ⊄ x}``: no front member is
        strictly dominated by *any* input, and every undominated input is
        represented on the front (up to ε-equality dedup).  The older claim
        "every input is weakly dominated by the front" is unattainable:
        ε-dominance is not transitive, so a dropped chain can end further
        than ε from its surviving dominator."""
        front = pareto_minimal_pairs(points, key=lambda v: v)
        for member in front:
            assert not any(strictly_dominates_pair(p, member) for p in points)
        for point in points:
            if not any(strictly_dominates_pair(p, point) for p in points):
                assert any(dominates_pair(f, point) for f in front)

    def test_epsilon_chain_regression(self):
        """A chain of points pairwise within ε used to leave a dominated
        point on the front: (0.2, …8) strictly dominates (2.0, …15) but was
        itself dropped as an ε-duplicate of (0.0, 5.0)."""
        points = [(0.0, 5.0), (0.2, 5.0 + 0.8e-9), (2.0, 5.0 + 1.5e-9)]
        front = pareto_minimal_pairs(points, key=lambda v: v)
        assert front == [(0.0, 5.0)]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_no_front_member_dominated_with_epsilon_spaced_costs(self, data):
        """Regression for the ε-chain sweep bug: costs and damages spaced in
        sub-ε increments must never leave a strictly dominated point kept."""
        from repro.pareto.poset import EPSILON

        count = data.draw(st.integers(2, 8), label="count")
        base_cost = data.draw(st.floats(0, 10, allow_nan=False), label="base_cost")
        base_damage = data.draw(
            st.floats(0, 10, allow_nan=False), label="base_damage"
        )
        points = []
        for _ in range(count):
            cost_steps = data.draw(st.integers(0, 40), label="cost_steps")
            damage_steps = data.draw(st.integers(0, 40), label="damage_steps")
            points.append(
                (
                    base_cost + cost_steps * (EPSILON / 10),
                    base_damage + damage_steps * (EPSILON / 10),
                )
            )
        front = pareto_minimal_pairs(points, key=lambda v: v)
        assert front, "front of a nonempty set is nonempty"
        for member in front:
            assert not any(strictly_dominates_pair(p, member) for p in points)
        assert is_antichain_pairs(front)

    @settings(max_examples=50, deadline=None)
    @given(points=cost_damage_pairs())
    def test_idempotent(self, points):
        once = pareto_minimal_pairs(points, key=lambda v: v)
        twice = pareto_minimal_pairs(once, key=lambda v: v)
        assert sorted(once) == sorted(twice)


class TestParetoMinimalTriples:
    def test_example4_keeps_reaching_attack(self):
        """From Example 4: (3, 0, 1) must survive at node pb even though
        (0, 0, 0) is cheaper, because it reaches the node."""
        values = [(0, 0, 0), (3, 0, 1)]
        front = pareto_minimal_triples(values, key=lambda v: v)
        assert sorted(front) == [(0, 0, 0), (3, 0, 1)]

    def test_example4_discards_non_reaching_expensive(self):
        """At node dr, (3, 0, 0) is dominated by (0, 0, 0) and discarded."""
        values = [(0, 0, 0), (3, 0, 0), (2, 10, 0), (5, 110, 1)]
        front = pareto_minimal_triples(values, key=lambda v: v)
        assert sorted(front) == [(0, 0, 0), (2, 10, 0), (5, 110, 1)]

    def test_antichain_property(self):
        values = [(1, 1, 0.5), (2, 2, 0.7), (1, 3, 0.2), (3, 1, 1.0)]
        front = pareto_minimal_triples(values, key=lambda v: v)
        for a in front:
            for b in front:
                if a != b:
                    assert not strictly_dominates_triple(a, b)


class TestHelpers:
    def test_is_antichain_detects_domination(self):
        assert is_antichain_pairs([(1, 10), (2, 20)])
        assert not is_antichain_pairs([(1, 10), (2, 5)])

    def test_merge_pair_sets(self):
        merged = merge_pair_sets([(0, 0), (1, 10)], [(1, 20), (2, 5)])
        assert sorted(merged) == [(0, 0), (1, 20)]
