"""Probabilistic cost-damage analysis: expected damage and the open DAG
problem.

This example goes deeper into the probabilistic side of the paper
(Sections VIII and IX):

1. it contrasts the deterministic and probabilistic Pareto fronts of a small
   model (Example 10 of the paper) to show why redundant attack steps become
   worthwhile when success is uncertain;
2. it demonstrates the paper's open problem — probabilistic analysis of
   DAG-like ATs — on a scaled-down version of the data-server model, using
   the enumerative baseline.

Run it with::

    python examples/probabilistic_analysis.py
"""

from repro import AttackTreeBuilder, catalog
from repro.core.bottom_up import pareto_front_treelike
from repro.core.bottom_up_prob import pareto_front_treelike_probabilistic
from repro.core.enumerative import enumerate_pareto_front_probabilistic


def redundancy_pays_off() -> None:
    print("=" * 72)
    print("1. Redundant attempts pay off under uncertainty (Example 10)")
    print("=" * 72)
    model = catalog.example10_or_pair()
    deterministic = pareto_front_treelike(model.deterministic())
    probabilistic = pareto_front_treelike_probabilistic(model)
    print("deterministic front:", deterministic.values())
    print("probabilistic front:", probabilistic.values())
    print("Attempting BOTH children of the OR gate is never optimal")
    print("deterministically, but probabilistically it raises the chance of")
    print("reaching the damaging node from 0.5 to 0.75 for one extra unit of cost.")
    print()


def probabilistic_dag_extension() -> None:
    print("=" * 72)
    print("2. Probabilistic DAG analysis (the paper's open problem)")
    print("=" * 72)
    # A scaled-down probabilistic data-server model: the shared FTP-connection
    # BAS correlates the SSH and FTP exploits, so the treelike recursion of
    # Theorem 9 does not apply.
    builder = AttackTreeBuilder()
    builder.bas("connect_ftp", cost=100, probability=0.9,
                label="internet connection to FTP server")
    builder.bas("ssh_exploit", cost=155, probability=0.5, label="attack via SSH")
    builder.bas("ftp_exploit", cost=150, probability=0.6, label="attack via FTP")
    builder.bas("licq", cost=155, probability=0.7, label="LICQ remote-to-user attack")
    builder.and_gate("ssh_overflow", ["connect_ftp", "ssh_exploit"])
    builder.and_gate("ftp_overflow", ["connect_ftp", "ftp_exploit"])
    builder.or_gate("root_ftp", ["ssh_overflow", "ftp_overflow"], damage=10.5,
                    label="root access to FTP server")
    builder.and_gate("user_data_server", ["root_ftp", "licq"], damage=13.5,
                     label="user access to data server")
    model = builder.build_cdp(root="user_data_server")
    print(f"model is treelike: {model.tree.is_treelike} "
          f"(shared: {sorted(model.tree.shared_nodes())})")

    exact_front = enumerate_pareto_front_probabilistic(model)
    print("exact cost-expected-damage front (enumerative):")
    print(exact_front.table())

    print()
    print("The front shows that attempting BOTH exploits on top of the shared")
    print("connection is Pareto-optimal — the probabilistic analogue of the")
    print("redundancy effect, now on a DAG, which the paper leaves open.")


if __name__ == "__main__":
    redundancy_pays_off()
    probabilistic_dag_extension()
