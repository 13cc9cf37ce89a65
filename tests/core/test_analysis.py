"""Tests for the CostDamageAnalyzer facade."""

import pytest

from repro.attacktree.catalog import data_server, factory, panda_iot
from repro.core.analysis import CostDamageAnalyzer
from repro.core.problems import Method
from repro.workloads import ScenarioSpec, expand


class TestBasics:
    def test_model_facts(self):
        analyzer = CostDamageAnalyzer(panda_iot())
        assert analyzer.is_treelike
        assert analyzer.is_probabilistic
        dag_analyzer = CostDamageAnalyzer(data_server())
        assert not dag_analyzer.is_treelike
        assert not dag_analyzer.is_probabilistic

    def test_describe_mentions_method(self):
        assert "bottom-up" in CostDamageAnalyzer(factory()).describe()
        assert "integer linear" in CostDamageAnalyzer(data_server()).describe()

    def test_describe_names_the_resolved_dag_method(self):
        text = CostDamageAnalyzer(data_server()).describe()
        assert "once per subset of the shared BASs" in text
        # shared-bas n18 shares 9 BASs: the registry leaves it to BILP.
        (case,) = expand(ScenarioSpec(
            family="shared-bas", shape="dag", setting="deterministic", sizes=(18,)
        ))
        text = CostDamageAnalyzer(case.model).describe()
        assert "bottom-up" not in text
        assert "integer linear programming (Theorem 6)" in text

    def test_pareto_front_cached(self):
        analyzer = CostDamageAnalyzer(factory())
        assert analyzer.pareto_front() is analyzer.pareto_front()

    def test_single_objective_queries_cached_by_session(self):
        analyzer = CostDamageAnalyzer(factory())
        analyzer.max_damage(2)
        analyzer.max_damage(2)
        analyzer.min_cost(300)
        assert analyzer.session.stats.hits == 1
        assert analyzer.session.stats.misses == 2

    def test_method_override_bypasses_cache(self):
        analyzer = CostDamageAnalyzer(factory())
        default = analyzer.pareto_front()
        enumerated = analyzer.pareto_front(method=Method.ENUMERATIVE)
        assert default.values() == enumerated.values()
        # Two distinct computations must actually have run: a broken
        # Method->backend mapping would collapse both onto one cache key.
        assert analyzer.session.stats.misses == 2


class TestQueries:
    def test_max_damage(self):
        analyzer = CostDamageAnalyzer(factory())
        assert analyzer.max_damage(2).value == 200
        assert analyzer.min_cost(300).value == 5

    def test_probabilistic_queries(self):
        analyzer = CostDamageAnalyzer(panda_iot())
        assert analyzer.expected_pareto_front().max_damage_given_cost(3) == pytest.approx(18.0)
        assert analyzer.max_expected_damage(3).value == pytest.approx(18.0)
        assert analyzer.min_cost_expected(18.0).value == 3

    def test_damage_budget_curve(self):
        analyzer = CostDamageAnalyzer(factory())
        curve = analyzer.damage_budget_curve([0, 1, 3, 5, 10])
        assert [(p.budget, p.damage) for p in curve] == [
            (0, 0), (1, 200), (3, 210), (5, 310), (10, 310)
        ]
        assert all(p.reachable for p in curve)

    def test_damage_budget_curve_unreachable_budget_is_explicit(self):
        """A budget below every front point must not masquerade as 0 damage."""
        analyzer = CostDamageAnalyzer(factory())
        (point,) = analyzer.damage_budget_curve([-1])
        assert point.damage is None
        assert not point.reachable

    def test_damage_budget_curve_probabilistic(self):
        analyzer = CostDamageAnalyzer(panda_iot())
        curve = analyzer.damage_budget_curve([3], probabilistic=True)
        assert curve[0].damage == pytest.approx(18.0)
        assert curve[0].reachable


class TestCriticalBasReport:
    def test_panda_deterministic_criticality(self):
        """Section X.A: every optimal attack contains at least one of the
        three cheap minimal attacks; b18 appears in A1, A3..A8 but not A2."""
        analyzer = CostDamageAnalyzer(panda_iot())
        report = analyzer.critical_basic_attack_steps()
        assert "b18" in report.in_some_optimal_attack
        # Base-station compromise via physical theft or code theft (the two
        # cost-4 minimal attacks) appears among the optimal witnesses.
        assert {"b19", "b20"} <= report.in_some_optimal_attack or \
            {"b21", "b22"} <= report.in_some_optimal_attack
        # BAS b17 (purchase from 3rd party) and b2 (analytical reasoning) are
        # never Pareto-optimal choices.
        assert "b17" in report.unused
        assert "b2" in report.unused

    def test_panda_probabilistic_b18_in_every_attack(self):
        """Section X.A: in the probabilistic setting internal leakage (b18)
        is part of every Pareto-optimal attack."""
        analyzer = CostDamageAnalyzer(panda_iot())
        report = analyzer.critical_basic_attack_steps(probabilistic=True)
        assert "b18" in report.in_every_optimal_attack

    def test_data_server_criticality(self):
        """Section X.B: the FTP buffer overflow BASs (b6, b8) appear in every
        Pareto-optimal attack."""
        analyzer = CostDamageAnalyzer(data_server())
        report = analyzer.critical_basic_attack_steps()
        assert {"b6", "b8"} <= report.in_every_optimal_attack
        assert {"b7", "b9", "b10"} <= report.unused

    def test_empty_front_report(self):
        """A model where no nonzero attack is ever optimal (all damage zero)."""
        from repro.attacktree.builder import AttackTreeBuilder

        builder = AttackTreeBuilder()
        builder.bas("a", cost=1)
        builder.or_gate("g", ["a"])
        analyzer = CostDamageAnalyzer(builder.build_cd(root="g"))
        report = analyzer.critical_basic_attack_steps()
        assert report.in_every_optimal_attack == frozenset()
        assert report.unused == frozenset({"a"})


class TestReport:
    def test_report_contains_sections(self):
        text = CostDamageAnalyzer(factory()).report()
        assert "Pareto front" in text
        assert "BASs in every optimal attack" in text

    def test_probabilistic_report(self):
        text = CostDamageAnalyzer(panda_iot()).report(probabilistic=True)
        assert "b18" in text
