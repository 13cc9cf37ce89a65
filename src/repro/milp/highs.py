"""HiGHS backend: solve :class:`IntegerProgram` via ``scipy.optimize.milp``.

The paper uses Gurobi (through YALMIP) to solve the ILP formulations of
Theorems 6 and 7.  Gurobi is not available offline, so the single ILP
solver here is the HiGHS mixed-integer solver bundled with SciPy, which
solves the identical formulations to proven optimality; only wall-clock
constants differ.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
from typing import Iterator, Optional

from scipy.optimize import Bounds, LinearConstraint, milp as _scipy_milp

from .model import IntegerProgram, Objective
from .solution import MilpSolution, SolveStatus

__all__ = ["HighsSolver"]


# The fd redirect below is process-global state, so overlapping solves
# (thread-pool batches) must not each save-and-restore fd 1 independently:
# interleaved restores would leave stdout pointing at /dev/null forever.
# A refcount under a lock makes the gag reentrant — the first solve in
# redirects, the last one out restores.
_gag_lock = threading.Lock()
_gag_depth = 0
_gag_saved_fd: Optional[int] = None


@contextlib.contextmanager
def _native_stdout_to_devnull() -> Iterator[None]:
    """Silence OS-level stdout (fd 1) for the duration of the block.

    The HiGHS C++ library prints a stray diagnostic line
    (``HighsMipSolverData::transformNewIntegerFeasibleSolution …``) on some
    instances, straight to the C ``stdout`` stream — below ``sys.stdout``,
    so neither ``disp=False`` nor ``contextlib.redirect_stdout`` can catch
    it.  Redirecting the file descriptor itself is the only reliable gag.
    Python-level output is flushed first so it cannot be swallowed.
    Reentrant and thread-safe: while any solve is in flight fd 1 stays on
    ``/dev/null``; the original descriptor returns when the last exits.
    The redirect is process-global, so stdout written by *other* threads
    during that window is swallowed too.
    """
    global _gag_depth, _gag_saved_fd
    try:
        sys.stdout.flush()
    except (ValueError, OSError):  # pragma: no cover - stdout already closed
        pass
    with _gag_lock:
        if _gag_depth == 0:
            try:
                _gag_saved_fd = os.dup(1)
            except OSError:  # pragma: no cover - no usable fd 1
                _gag_saved_fd = None
            if _gag_saved_fd is not None:
                devnull = os.open(os.devnull, os.O_WRONLY)
                try:
                    os.dup2(devnull, 1)
                finally:
                    os.close(devnull)
        _gag_depth += 1
    try:
        yield
    finally:
        with _gag_lock:
            _gag_depth -= 1
            if _gag_depth == 0 and _gag_saved_fd is not None:
                os.dup2(_gag_saved_fd, 1)
                os.close(_gag_saved_fd)
                _gag_saved_fd = None


class HighsSolver:
    """Solve integer programs to proven optimality with SciPy's HiGHS.

    Solves are silent: solver display stays off and HiGHS's stray
    native-stdout diagnostics are suppressed at the file-descriptor level.
    """

    def solve(
        self, program: IntegerProgram, objective: Optional[Objective] = None
    ) -> MilpSolution:
        """Solve the program (or one chosen objective of it) to optimality."""
        if objective is None:
            objective = program.objective
        c, a_ub, b_ub, lower, upper, integrality = program.dense_arrays(objective)

        constraints = []
        if a_ub.size:
            constraints.append(LinearConstraint(a_ub, ub=b_ub))

        with _native_stdout_to_devnull():
            result = _scipy_milp(
                c=c,
                constraints=constraints,
                bounds=Bounds(lb=lower, ub=upper),
                integrality=integrality,
                # A zero gap keeps the answers exact: HiGHS would otherwise
                # stop within its default 1e-4 relative gap of the optimum.
                options={"mip_rel_gap": 0.0},
            )

        if result.status == 0 and result.x is not None:
            assignment = {
                name: float(result.x[i]) for i, name in enumerate(program.variable_order)
            }
            return MilpSolution(
                status=SolveStatus.OPTIMAL,
                objective_value=objective.value(assignment),
                assignment=assignment,
                backend="highs",
            )
        if result.status == 2:
            return MilpSolution(status=SolveStatus.INFEASIBLE, backend="highs")
        if result.status == 3:
            return MilpSolution(status=SolveStatus.UNBOUNDED, backend="highs")
        return MilpSolution(status=SolveStatus.ERROR, backend="highs")
