"""Experiment harness reproducing the paper's evaluation (Section X).

``casestudies``
    Figures 3 and 6a/6b/6c — Pareto fronts of the factory, panda-IoT and
    data-server ATs, compared against the published points.
``timing``
    Table III — wall-clock comparison of bottom-up, BILP and enumerative
    methods on the case studies with true and random decorations.
``random_suite``
    Figure 7 — scaling on randomly generated treelike and DAG suites.
``report``
    Plain-text rendering helpers shared by the above.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "casestudies": "casestudies",
    "random_suite": "random_suite",
    "report": "report",
    "timing": "timing",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
