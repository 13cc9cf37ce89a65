"""The front workload, ``dag-front``.

One op is ``run_serialized_request`` of CDPF on one case, called
in-process.  A run makes a fixed number of whole passes over the case
list, each in a seeded order; every result is compared with its committed
expected front.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from cases import build_cases, front_values, fronts_match, load_expected, pass_order
from hooks import install_kernel_spans
from measure import MIN_OPS, SETUP_LAUNCHES, now_ns, peak_rss_mb
from tracing import Tracer

#: Seconds one pass took on a 2-vCPU VM (0.7-1.2 s as the host's speed
#: changed).  A run makes a fixed number of passes, enough to last about
#: ``--seconds`` there (and at least ``MIN_OPS`` ops), so every run does
#: the same work on any machine.
PASS_SECONDS = 1.0


def pass_count(cases: int, seconds: float) -> int:
    return max(math.ceil(MIN_OPS / cases), round(seconds / PASS_SECONDS))


def prepare(workload: str):
    """Everything an op needs: the generated cases and their expected fronts."""
    return build_cases(workload), load_expected(workload)


def measure_setup(env: Dict[str, str]) -> List[float]:
    """Launch-to-exit times of fresh interpreters importing the package the
    ops call: the program's start-up, nothing of the benchmark's own."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.engine.session"],
            env=env, check=True,
        )
        times.append(time.perf_counter() - started)
    return times


def run(
    workload: str, seed: int, seconds: float, tracer: Optional[Tracer] = None
) -> Dict[str, Any]:
    from repro.engine.session import run_serialized_request

    cases, expected = prepare(workload)
    if tracer is not None:
        install_kernel_spans(tracer)
    # Lazy imports and first-use set-up happen once per process: pay them
    # on the smallest case of each setting before the window opens.
    warmups: Dict[str, Any] = {}
    for case in cases:
        problem = case.request["problem"]
        if problem not in warmups or case.bas_count < warmups[problem].bas_count:
            warmups[problem] = case
    for case in warmups.values():
        run_serialized_request(case.model, case.request)
    gc.collect()

    latencies: List[float] = []
    by_case: Dict[str, List[float]] = {case.case_id: [] for case in cases}
    backends: Dict[str, str] = {}
    failed = 0
    passes = pass_count(len(cases), seconds)
    window_start = now_ns()
    cpu_started = time.process_time()
    started = time.perf_counter()
    for pass_index in range(passes):
        for index in pass_order(len(cases), seed, pass_index):
            case = cases[index]
            op_started = time.perf_counter()
            try:
                result = run_serialized_request(case.model, case.request)
            except Exception as error:  # noqa: BLE001 - a failed op is counted, not fatal
                print(f"{case.case_id}: {error!r}", file=sys.stderr)
                failed += 1
                latencies.append(float("inf"))
                continue
            latencies.append(time.perf_counter() - op_started)
            by_case[case.case_id].append(latencies[-1])
            backends[case.case_id] = result["backend"]
            if not fronts_match(front_values(result), expected[case.case_id]):
                failed += 1
    window = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    window_ns = (window_start, now_ns())
    return {
        "cases": cases,
        "backends": backends,
        "case_median_ms": {
            case_id: statistics.median(values) * 1e3
            for case_id, values in by_case.items() if values
        },
        "passes": passes,
        "latencies_s": latencies,
        "failed": failed,
        "window_s": window,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb([os.getpid()]),
        "window_ns": window_ns,
    }
