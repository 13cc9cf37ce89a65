"""A-ABL5: probabilistic-DAG methods (the paper's open problem).

Times the ways this library answers the open problem on a probabilistic
version of the Fig. 5 data-server DAG (uniform success probability 0.8 on
all 12 BASs):

* exact CEDPF via the enumerative baseline (every attack's expected damage
  from a zeta transform over the damage table);
* one attack's expected damage by summing its ``2^|x|`` actualizations
  (the per-attack oracle).

The front's points are checked against the per-attack oracle.
"""

import pytest

from repro.attacktree.catalog import data_server
from repro.core.enumerative import enumerate_pareto_front_probabilistic
from repro.probability.actualization import expected_damage


@pytest.fixture(scope="module")
def probabilistic_server():
    base = data_server()
    return base.with_probabilities({b: 0.8 for b in base.tree.basic_attack_steps})


def test_probabilistic_dag_enumerative_full_front(benchmark, probabilistic_server):
    front = benchmark.pedantic(
        enumerate_pareto_front_probabilistic, args=(probabilistic_server,),
        rounds=1, iterations=1,
    )
    assert front.is_consistent()
    assert len(front) >= 5
    for point in front:
        assert expected_damage(probabilistic_server, point.attack) == pytest.approx(
            point.damage
        )


def test_probabilistic_dag_single_attack_actualizations(benchmark, probabilistic_server):
    attack = frozenset({"b6", "b8", "b11", "b12"})
    value = benchmark(expected_damage, probabilistic_server, attack)
    assert 0 < value < 60
