"""A-ABL3: the single-objective ILP solver on the data-server case study.

The paper drives its BILP formulation with Gurobi.  This reproduction
solves the identical Theorem 6/7 programs to optimality with SciPy's HiGHS
MILP; the benchmark records its cost for the front sweep and for one DgC
program.
"""

from repro.core.bilp import max_damage_given_cost_bilp, pareto_front_bilp

PAPER_FRONT = [(0, 0), (250, 24), (568, 60), (976, 70.8), (1131, 75.8), (1281, 82.8)]


def test_ablation_solver_highs_front(benchmark, data_server_model):
    front = benchmark(pareto_front_bilp, data_server_model)
    assert front.values() == PAPER_FRONT


def test_ablation_solver_highs_dgc(benchmark, data_server_model):
    value, _ = benchmark(max_damage_given_cost_bilp, data_server_model, 600)
    assert value == 60.0
