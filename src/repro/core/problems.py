"""The six cost-damage problems of the paper (Sections IV and VIII).

:class:`Problem` names each one; requests to the engine
(:class:`repro.engine.AnalysisRequest`) carry it, and the engine's
capability registry picks the backend that answers it (Table I of the
paper, see :func:`capability_matrix`).

==========  ==========================================  ===================
problem     meaning                                      parameter
==========  ==========================================  ===================
``CDPF``    cost-damage Pareto front                     —
``DGC``     max damage given a cost budget               ``budget``
``CGD``     min cost given a damage threshold            ``threshold``
``CEDPF``   cost-expected-damage Pareto front            —
``EDGC``    max expected damage given a cost budget      ``budget``
``CGED``    min cost given an expected-damage threshold  ``threshold``
==========  ==========================================  ===================
"""

from __future__ import annotations

import enum

__all__ = ["Problem", "capability_matrix"]


class Problem(enum.Enum):
    """The six cost-damage problems of the paper."""

    CDPF = "cdpf"
    DGC = "dgc"
    CGD = "cgd"
    CEDPF = "cedpf"
    EDGC = "edgc"
    CGED = "cged"

    @property
    def is_probabilistic(self) -> bool:
        """``True`` for the expected-damage problems."""
        return self in {Problem.CEDPF, Problem.EDGC, Problem.CGED}

    @property
    def is_front(self) -> bool:
        """``True`` for the Pareto-front problems."""
        return self in {Problem.CDPF, Problem.CEDPF}


def capability_matrix() -> dict:
    """Table I of the paper: which exact method covers which setting.

    Keys are ``(setting, shape)`` pairs; values name the algorithm (or mark
    the open problem).  The table is computed from the engine registry's
    declared backend capabilities — see
    :meth:`repro.engine.BackendRegistry.capability_report` — so it always
    reflects what resolution will actually do.
    """
    from ..engine.registry import shared_registry

    return shared_registry().capability_report()
