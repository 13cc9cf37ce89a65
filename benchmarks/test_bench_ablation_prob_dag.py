"""A-ABL5: probabilistic-DAG methods (the paper's open problem).

Compares the ways this library attacks the open problem on a probabilistic
version of the Fig. 5 data-server DAG (uniform success probability 0.8 on
all 12 BASs):

* exact CEDPF via the enumerative baseline (every attack's expected damage
  from a zeta transform over the damage table);
* exact CEDPF via multilinear reach polynomials (the conclusion's
  "polynomial ring" idea), on the full DAG and on the 5-BAS FTP sub-DAG;
* one attack's expected damage via its polynomial and via summing its
  ``2^|x|`` actualizations (the per-attack oracle).

All agree where they overlap; the benchmark quantifies the speed
differences between them.
"""

import pytest

from repro.attacktree.catalog import data_server
from repro.core.enumerative import enumerate_pareto_front_probabilistic
from repro.extensions.polynomial import (
    expected_damage_polynomial,
    pareto_front_probabilistic_polynomial,
    reach_polynomials,
)
from repro.probability.actualization import expected_damage


@pytest.fixture(scope="module")
def probabilistic_server():
    base = data_server()
    return base.with_probabilities({b: 0.8 for b in base.tree.basic_attack_steps})


@pytest.fixture(scope="module")
def probabilistic_server_subdag(probabilistic_server):
    """The FTP-server sub-DAG (5 BASs, containing the shared connection step)."""
    sub = probabilistic_server.restricted_to("user_access_ftp")
    assert len(sub.tree.basic_attack_steps) == 5
    assert not sub.tree.is_treelike
    return sub


def test_probabilistic_dag_polynomial_full_front(benchmark, probabilistic_server):
    front = benchmark(pareto_front_probabilistic_polynomial, probabilistic_server)
    assert front.is_consistent()
    assert len(front) >= 5


def test_probabilistic_dag_polynomial_subdag_front(benchmark, probabilistic_server_subdag):
    front = benchmark(pareto_front_probabilistic_polynomial, probabilistic_server_subdag)
    assert front.is_consistent()


def test_probabilistic_dag_enumerative_full_front(benchmark, probabilistic_server):
    front = benchmark.pedantic(
        enumerate_pareto_front_probabilistic, args=(probabilistic_server,),
        rounds=1, iterations=1,
    )
    polynomial = pareto_front_probabilistic_polynomial(probabilistic_server)
    assert len(front) == len(polynomial)
    for a, b in zip(front.values(), polynomial.values()):
        assert a == pytest.approx(b)


def test_probabilistic_dag_single_attack_polynomial(benchmark, probabilistic_server):
    polynomials = reach_polynomials(probabilistic_server.tree)
    attack = frozenset({"b6", "b8", "b11", "b12"})
    value = benchmark(
        expected_damage_polynomial, probabilistic_server, attack, polynomials
    )
    assert 0 < value < 60


def test_probabilistic_dag_single_attack_actualizations(benchmark, probabilistic_server):
    attack = frozenset({"b6", "b8", "b11", "b12"})
    value = benchmark(expected_damage, probabilistic_server, attack)
    assert value == pytest.approx(
        expected_damage_polynomial(probabilistic_server, attack)
    )
