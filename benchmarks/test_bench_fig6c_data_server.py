"""E-FIG6C: deterministic cost-damage Pareto front of the data-server AT.

Fig. 6c of the paper: the AT is DAG-like, so the BILP method (Theorem 6)
applies; the front has 5 nonzero points and only the cheapest one fails to
reach the top node.  The enumerative baseline (2^12 attacks) is benchmarked
alongside, mirroring the Fig. 5 row of Table III.
"""

from repro.core.bilp import max_damage_given_cost_bilp, pareto_front_bilp
from repro.core.enumerative import enumerate_pareto_front

PAPER_FRONT = [(0, 0), (250, 24), (568, 60), (976, 70.8), (1131, 75.8), (1281, 82.8)]


def test_fig6c_bilp_highs(benchmark, data_server_model):
    front = benchmark(pareto_front_bilp, data_server_model)
    assert front.values() == PAPER_FRONT


def test_fig6c_enumerative(benchmark, data_server_model):
    front = benchmark(enumerate_pareto_front, data_server_model)
    assert front.values() == PAPER_FRONT


def test_fig6c_dgc_budget600(benchmark, data_server_model):
    """DgC on the DAG: with 600 seconds the best attack compromises the FTP
    server and the data server (damage 60)."""
    value, attack = benchmark(max_damage_given_cost_bilp, data_server_model, 600)
    assert value == 60.0
    assert attack == frozenset({"b6", "b8", "b11", "b12"})
