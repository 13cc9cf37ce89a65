"""Unit and property tests for the ParetoFront object."""

from hypothesis import given, settings

from repro.pareto.front import ParetoFront, ParetoPoint
from repro.pareto.poset import strictly_dominates_pair

from ..conftest import cost_damage_pairs


def example_front() -> ParetoFront:
    """The Fig. 3 front of the factory example."""
    return ParetoFront.from_values([(0, 0), (1, 200), (3, 210), (5, 310)])


class TestConstruction:
    def test_dominated_points_dropped(self):
        front = ParetoFront.from_values([(0, 0), (1, 200), (2, 10), (4, 200)])
        assert front.values() == [(0, 0), (1, 200)]

    def test_duplicates_collapsed(self):
        front = ParetoFront.from_values([(1, 10), (1, 10), (0, 0)])
        assert len(front) == 2

    def test_points_sorted_by_cost(self):
        front = ParetoFront.from_values([(5, 310), (0, 0), (3, 210)])
        assert front.costs() == [0, 3, 5]
        assert front.damages() == [0, 210, 310]

    def test_from_attacks_carries_witnesses(self):
        front = ParetoFront.from_attacks(
            [(frozenset({"ca"}), 1.0, 200.0), (frozenset(), 0.0, 0.0)]
        )
        assert front[1].attack == frozenset({"ca"})

    def test_empty_front(self):
        front = ParetoFront([])
        assert len(front) == 0
        assert front.values() == []
        assert front.max_damage_given_cost(10) is None
        assert front.min_cost_given_damage(1) is None


class TestQueries:
    def test_max_damage_given_cost_matches_example2(self):
        """Example 2: the solution to DgC for U = 2 is 200."""
        assert example_front().max_damage_given_cost(2) == 200

    def test_max_damage_given_cost_boundaries(self):
        front = example_front()
        assert front.max_damage_given_cost(0) == 0
        assert front.max_damage_given_cost(5) == 310
        assert front.max_damage_given_cost(100) == 310
        assert front.max_damage_given_cost(4.99) == 210

    def test_min_cost_given_damage(self):
        front = example_front()
        assert front.min_cost_given_damage(200) == 1
        assert front.min_cost_given_damage(201) == 3
        assert front.min_cost_given_damage(310) == 5
        assert front.min_cost_given_damage(311) is None
        assert front.min_cost_given_damage(0) == 0

    def test_best_attack_given_cost(self):
        front = ParetoFront.from_attacks([(frozenset({"ca"}), 1.0, 200.0)])
        point = front.best_attack_given_cost(2)
        assert point is not None and point.attack == frozenset({"ca"})
        assert front.best_attack_given_cost(0.5) is None

    def test_cheapest_attack_given_damage(self):
        front = example_front()
        point = front.cheapest_attack_given_damage(205)
        assert point is not None and point.cost == 3
        assert front.cheapest_attack_given_damage(1000) is None

    def test_dominates_point(self):
        front = example_front()
        assert front.dominates_point(2, 150)
        assert not front.dominates_point(0.5, 100)


class TestSetOperations:
    def test_merge(self):
        left = ParetoFront.from_values([(0, 0), (2, 100)])
        right = ParetoFront.from_values([(1, 150), (3, 120)])
        merged = left.merge(right)
        assert merged.values() == [(0, 0), (1, 150)]

    def test_restrict_to_budget(self):
        restricted = example_front().restrict_to_budget(3)
        assert restricted.values() == [(0, 0), (1, 200), (3, 210)]

    def test_equality_and_hash(self):
        assert example_front() == ParetoFront.from_values(
            [(5, 310), (3, 210), (1, 200), (0, 0)]
        )
        assert hash(example_front()) == hash(example_front())
        assert example_front() != ParetoFront.from_values([(0, 0)])

    def test_tolerantly_equal_fronts_hash_equal(self):
        left = ParetoFront.from_values([(0, 0), (1, 1.0)])
        right = ParetoFront.from_values([(0, 0), (1, 1.0000001)])
        assert left == right
        assert hash(left) == hash(right)
        assert len({left, right}) == 1

    def test_values_equal_with_tolerance(self):
        left = ParetoFront.from_values([(1, 200.0000001)])
        right = ParetoFront.from_values([(1, 200)])
        assert left.values_equal(right)


class TestIndicatorsAndDisplay:
    def test_table_rendering(self):
        front = ParetoFront.from_attacks([(frozenset({"ca"}), 1.0, 200.0)])
        text = front.table()
        assert "cost" in text and "ca" in text

    def test_repr(self):
        assert "ParetoFront" in repr(example_front())

    def test_consistency_check(self):
        assert example_front().is_consistent()

    def test_two_equal_cost_points_are_inconsistent(self):
        # Constructors always collapse equal-cost points, so build the
        # degenerate front by hand: two points at the same cost whose damages
        # are within tolerance slip past the antichain check, and only the
        # strict-separation clause of ``is_consistent`` can reject them.
        front = ParetoFront([])
        front._points = (
            ParetoPoint(cost=1.0, damage=5.0),
            ParetoPoint(cost=1.0, damage=5.0 + 0.5e-9),
        )
        assert not front.is_consistent()

    def test_point_str(self):
        point = ParetoPoint(cost=1, damage=200, attack=frozenset({"ca"}))
        assert "ca" in str(point)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(points=cost_damage_pairs(size=10))
    def test_front_is_always_consistent(self, points):
        front = ParetoFront.from_values(points)
        assert front.is_consistent()

    @settings(max_examples=100, deadline=None)
    @given(points=cost_damage_pairs(size=10))
    def test_front_is_the_undominated_inputs(self, points):
        """The front is the paper's ``min``: exactly the inputs that no
        input strictly dominates (ε-dominance is not transitive, so
        "every input is dominated *by the front*" is not attainable)."""
        front = ParetoFront.from_values(points)
        for value in front.values():
            assert not any(strictly_dominates_pair(p, value) for p in points)
        for point in points:
            if not any(strictly_dominates_pair(p, point) for p in points):
                assert front.dominates_point(*point)

    @settings(max_examples=50, deadline=None)
    @given(points=cost_damage_pairs(size=10))
    def test_dgc_cgd_consistency(self, points):
        """Equations (1) and (2) are mutually consistent on any front."""
        front = ParetoFront.from_values(points)
        for cost, _damage in points:
            best = front.max_damage_given_cost(cost)
            if best is None or best == 0:
                continue
            cheapest = front.min_cost_given_damage(best)
            assert cheapest is not None
            assert cheapest <= cost + 1e-9
