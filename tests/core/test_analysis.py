"""Tests for the insights read off an AnalysisSession's fronts."""

import pytest

from repro.attacktree.builder import AttackTreeBuilder
from repro.attacktree.catalog import data_server, factory, panda_iot
from repro.core.analysis import (
    critical_basic_attack_steps,
    damage_budget_curve,
    describe,
    report,
)
from repro.engine import AnalysisSession
from repro.workloads import ScenarioSpec, expand


def _data_server_half_probabilities():
    model = data_server()
    return model.with_probabilities(
        {name: 0.5 for name in model.tree.basic_attack_steps}
    )


class TestBasics:
    def test_model_facts(self):
        text = describe(AnalysisSession(panda_iot()))
        assert text.startswith("probabilistic (cdp-AT) attack tree with 38 nodes")
        assert "(22 BASs), treelike" in text
        text = describe(AnalysisSession(data_server()))
        assert text.startswith("deterministic (cd-AT) attack tree with 25 nodes")
        assert "(12 BASs), DAG-like" in text

    def test_describe_states_dag_sharing_and_width(self):
        text = describe(AnalysisSession(data_server()))
        assert "DAG-like (shared nodes: 1, frontier width w = 1)" in text
        assert "frontier width" not in describe(AnalysisSession(factory()))

    def test_describe_mentions_method(self):
        assert "CDPF runs on 'bottom-up'" in describe(AnalysisSession(factory()))
        assert "CDPF runs on 'bottom-up'" in describe(AnalysisSession(data_server()))

    def test_describe_names_the_resolved_dag_method(self):
        # wide-fan n36 keeps its 12 overlap BASs open up to the root: w = 12
        # is above the CDPF width cutoff, so the registry leaves it to BILP.
        (case,) = expand(ScenarioSpec(
            family="wide-fan", shape="dag", setting="deterministic", sizes=(36,)
        ))
        text = describe(AnalysisSession(case.model))
        assert "DAG-like (shared nodes: 12, frontier width w = 12)" in text
        assert "CDPF runs on 'bilp' [BILP (Theorem 6)]" in text
        assert "'bottom-up'" not in text

    def test_describe_on_a_cdp_dag_names_the_backends_that_run(self):
        session = AnalysisSession(_data_server_half_probabilities())
        text = describe(session)
        assert "CDPF runs on 'bottom-up'" in text
        assert "CEDPF runs on 'enumerative' [open problem" in text
        assert "deterministic projection" not in text
        # The sentence names what the probabilistic report then runs.
        assert session.expected_pareto_front().backend == "enumerative"

    def test_describe_on_a_treelike_cdp_names_both_theorems(self):
        text = describe(AnalysisSession(panda_iot()))
        assert "CDPF runs on 'bottom-up' [bottom-up (Theorem 4)]" in text
        assert "CEDPF runs on 'bottom-up' [bottom-up (Theorem 9)]" in text

    def test_describe_reports_a_refused_cell_instead_of_failing(self):
        (case,) = expand(ScenarioSpec(
            family="shared-bas", shape="dag", setting="probabilistic", sizes=(17,)
        ))
        text = describe(AnalysisSession(case.model))
        assert "CEDPF has no automatic backend" in text
        assert "17 BASs exceed" in text


class TestCaching:
    def test_report_solves_the_front_once(self):
        session = AnalysisSession(factory())
        report(session)
        report(session)
        assert session.stats.misses == 1

    def test_derived_analyses_share_the_session_front(self):
        session = AnalysisSession(panda_iot())
        critical_basic_attack_steps(session, probabilistic=True)
        damage_budget_curve(session, [3], probabilistic=True)
        report(session, probabilistic=True)
        assert session.stats.misses == 1
        assert session.stats.hits == 3


class TestQueries:
    def test_max_damage(self):
        session = AnalysisSession(factory())
        assert session.max_damage(2).value == 200
        assert session.min_cost(300).value == 5

    def test_probabilistic_queries(self):
        session = AnalysisSession(panda_iot())
        front = session.expected_pareto_front().front
        assert front.max_damage_given_cost(3) == pytest.approx(18.0)
        assert session.max_expected_damage(3).value == pytest.approx(18.0)
        assert session.min_cost_expected(18.0).value == 3

    def test_damage_budget_curve(self):
        curve = damage_budget_curve(AnalysisSession(factory()), [0, 1, 3, 5, 10])
        assert [(p.budget, p.damage) for p in curve] == [
            (0, 0), (1, 200), (3, 210), (5, 310), (10, 310)
        ]
        assert all(p.reachable for p in curve)

    def test_damage_budget_curve_unreachable_budget_is_explicit(self):
        """A budget below every front point must not masquerade as 0 damage."""
        (point,) = damage_budget_curve(AnalysisSession(factory()), [-1])
        assert point.damage is None
        assert not point.reachable

    def test_damage_budget_curve_probabilistic(self):
        curve = damage_budget_curve(
            AnalysisSession(panda_iot()), [3], probabilistic=True
        )
        assert curve[0].damage == pytest.approx(18.0)
        assert curve[0].reachable


class TestCriticalBasReport:
    def test_panda_deterministic_criticality(self):
        """Section X.A: every optimal attack contains at least one of the
        three cheap minimal attacks; b18 appears in A1, A3..A8 but not A2."""
        result = critical_basic_attack_steps(AnalysisSession(panda_iot()))
        assert "b18" in result.in_some_optimal_attack
        # Base-station compromise via physical theft or code theft (the two
        # cost-4 minimal attacks) appears among the optimal witnesses.
        assert {"b19", "b20"} <= result.in_some_optimal_attack or \
            {"b21", "b22"} <= result.in_some_optimal_attack
        # BAS b17 (purchase from 3rd party) and b2 (analytical reasoning) are
        # never Pareto-optimal choices.
        assert "b17" in result.unused
        assert "b2" in result.unused

    def test_panda_probabilistic_b18_in_every_attack(self):
        """Section X.A: in the probabilistic setting internal leakage (b18)
        is part of every Pareto-optimal attack."""
        result = critical_basic_attack_steps(
            AnalysisSession(panda_iot()), probabilistic=True
        )
        assert "b18" in result.in_every_optimal_attack

    def test_data_server_criticality(self):
        """Section X.B: the FTP buffer overflow BASs (b6, b8) appear in every
        Pareto-optimal attack."""
        result = critical_basic_attack_steps(AnalysisSession(data_server()))
        assert {"b6", "b8"} <= result.in_every_optimal_attack
        assert {"b7", "b9", "b10"} <= result.unused

    def test_empty_front_report(self):
        """A model where no nonzero attack is ever optimal (all damage zero)."""
        builder = AttackTreeBuilder()
        builder.bas("a", cost=1)
        builder.or_gate("g", ["a"])
        result = critical_basic_attack_steps(
            AnalysisSession(builder.build_cd(root="g"))
        )
        assert result.in_every_optimal_attack == frozenset()
        assert result.unused == frozenset({"a"})


class TestReport:
    def test_report_contains_sections(self):
        text = report(AnalysisSession(factory()))
        assert "Pareto front" in text
        assert "BASs in every optimal attack" in text

    def test_probabilistic_report(self):
        text = report(AnalysisSession(panda_iot()), probabilistic=True)
        assert "b18" in text
