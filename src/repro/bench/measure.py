"""Timing primitives shared by the benchmark harness and the experiments.

:class:`TimingSample` (mean/std over repeated runs) and :func:`measure`
are the one measurement path of both the paper-reproduction experiments
and the workload benchmark harness; :func:`frozen_heap` keeps a run's
long-lived objects out of the collections that land between timings.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Tuple

__all__ = ["TimingSample", "frozen_heap", "measure", "timed"]


@dataclass(frozen=True)
class TimingSample:
    """Mean and standard deviation of a repeated timing measurement."""

    mean_seconds: float
    std_seconds: float
    runs: int

    @classmethod
    def from_durations(cls, durations: List[float]) -> "TimingSample":
        """Aggregate raw per-run durations into a sample."""
        if not durations:
            raise ValueError("at least one duration is required")
        std = statistics.pstdev(durations) if len(durations) > 1 else 0.0
        return cls(mean_seconds=statistics.mean(durations), std_seconds=std,
                   runs=len(durations))


def timed(function: Callable[[], Any]) -> Tuple[Any, float]:
    """Call ``function`` once, returning ``(result, seconds)``."""
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start


def measure(function: Callable[[], object], repeats: int = 1) -> TimingSample:
    """Time a callable ``repeats`` times with ``perf_counter``."""
    durations = []
    for _ in range(repeats):
        durations.append(timed(function)[1])
    return TimingSample.from_durations(durations)


@contextmanager
def frozen_heap() -> Iterator[None]:
    """Keep the garbage collector off the objects alive on entry.

    Collects once, then moves every surviving object to the permanent
    generation (:func:`gc.freeze`) until the block exits.  The collect
    before each bench case
    (:func:`repro.bench.harness.execute_serialized_case`) then walks only
    what the case allocates, not every expanded spec and model of the
    run.  A heap someone else already froze is left as it is, frozen on
    exit too.
    """
    if gc.get_freeze_count():
        yield
        return
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
