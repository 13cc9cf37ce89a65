"""Every registered backend is exact.

The registry holds only exact methods, so any backend that covers a
(problem, shape, setting) cell and accepts the model must return the
enumerative oracle's answer.  This suite runs each covered (backend,
case study, problem) triple through the session and checks the answer
against that oracle, and checks that every reported witness attack really
achieves the value reported for it.
"""

import pytest

from repro.attacktree import CostDamageProbAT
from repro.attacktree.catalog import (
    data_server,
    example10_or_pair,
    factory,
    factory_probabilistic,
)
from repro.core.enumerative import (
    enumerate_pareto_front,
    enumerate_pareto_front_probabilistic,
)
from repro.core.problems import Problem
from repro.core.semantics import attack_cost, attack_damage
from repro.engine import AnalysisRequest, AnalysisSession, shared_registry
from repro.engine.backend import model_shape, problem_setting
from repro.probability.actualization import expected_damage
from repro.workloads import ScenarioSpec, expand


def _probabilistic_dag():
    spec = ScenarioSpec(
        family="shared-bas", shape="dag", setting="probabilistic", sizes=(6,)
    )
    return expand(spec)[0].model


#: Small case studies, one per (shape, setting) cell, so the enumerative
#: oracle stays instant.
CASES = {
    "factory": factory,
    "factory-probabilistic": factory_probabilistic,
    "example10-or-pair": example10_or_pair,
    "data-server": data_server,
    "shared-bas-dag-probabilistic": _probabilistic_dag,
}


def _covered(front_problems: bool):
    """The (backend, case, problem) triples the registry would run."""
    registry = shared_registry()
    triples = []
    for case, build in CASES.items():
        model = build()
        for problem in Problem:
            if problem.is_front is not front_problems:
                continue
            if problem.is_probabilistic is not isinstance(model, CostDamageProbAT):
                continue
            for name in registry.names():
                backend = registry.get(name)
                covered = backend.covers(
                    problem, model_shape(model), problem_setting(problem)
                )
                if covered and backend.declines(model, problem) is None:
                    triples.append(pytest.param(name, case, problem,
                                                id=f"{name}-{case}-{problem.value}"))
    return triples


def _oracle_front(model, problem):
    if problem.is_probabilistic:
        return enumerate_pareto_front_probabilistic(model)
    return enumerate_pareto_front(model)


def _damage(model, problem, attack):
    if problem.is_probabilistic:
        return expected_damage(model, attack)
    return attack_damage(model, attack)


def _run(name, case, request_kwargs):
    model = CASES[case]()
    result = AnalysisSession(model).run(AnalysisRequest(backend=name, **request_kwargs))
    assert result.backend == name
    return model, result


class TestFrontsAreExact:
    @pytest.mark.parametrize("name,case,problem", _covered(front_problems=True))
    def test_front_matches_oracle_and_witnesses_realise_it(self, name, case, problem):
        model, result = _run(name, case, {"problem": problem})
        oracle = _oracle_front(model, problem)
        assert result.front.values_equal(oracle)
        assert result.front.is_consistent()
        for point in result.front:
            assert point.attack is not None
            assert attack_cost(model, point.attack) == pytest.approx(point.cost)
            assert _damage(model, problem, point.attack) == pytest.approx(point.damage)


class TestSingleObjectiveAnswersAreExact:
    @pytest.mark.parametrize("name,case,problem", _covered(front_problems=False))
    def test_value_matches_oracle_and_witness_respects_the_bound(
        self, name, case, problem
    ):
        model = CASES[case]()
        front_problem = Problem.CEDPF if problem.is_probabilistic else Problem.CDPF
        oracle = _oracle_front(model, front_problem)
        if problem in (Problem.DGC, Problem.EDGC):
            budget = sum(oracle.costs()) / len(oracle)
            _, result = _run(name, case, {"problem": problem, "budget": budget})
            assert result.value == pytest.approx(oracle.max_damage_given_cost(budget))
            assert attack_cost(model, result.witness) <= budget + 1e-9
            assert _damage(model, problem, result.witness) == pytest.approx(result.value)
        else:
            threshold = max(oracle.damages()) / 2
            _, result = _run(name, case, {"problem": problem, "threshold": threshold})
            assert result.value == pytest.approx(oracle.min_cost_given_damage(threshold))
            assert attack_cost(model, result.witness) == pytest.approx(result.value)
            assert _damage(model, problem, result.witness) >= threshold - 1e-9
