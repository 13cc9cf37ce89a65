"""Regenerate ``expected/<workload>.json`` for the front workload.

Each case is solved twice in-process: by the backend the program resolves
(what the benchmark measures) and by a second exact backend —
``enumerative`` when the model has at most ``ENUMERATIVE_MAX_BAS`` BASs,
otherwise ``bilp``.  The two fronts must agree before anything is
written; the committed values are the reference backend's.

Run from the repository root:

    python3 perfbench/make_expected.py [dag-front]
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from cases import (  # noqa: E402  (needs the path set above)
    FRONT_CASES, build_cases, expected_path, front_values, fronts_match,
)

#: Largest model the enumerative backend checks: beyond 16 BASs it leaves
#: its subset tables for a path that is far too slow.
ENUMERATIVE_MAX_BAS = 16


def main(workloads) -> int:
    from repro.engine.session import run_serialized_request

    for workload in workloads:
        fronts, references = {}, {}
        for case in build_cases(workload):
            started = time.perf_counter()
            measured = run_serialized_request(case.model, case.request)
            reference_backend = (
                "enumerative" if case.bas_count <= ENUMERATIVE_MAX_BAS else "bilp"
            )
            reference = run_serialized_request(
                case.model, dict(case.request, backend=reference_backend)
            )
            got, want = front_values(measured), front_values(reference)
            if not fronts_match(got, want):
                print(f"{case.case_id}: {measured['backend']} and "
                      f"{reference_backend} disagree", file=sys.stderr)
                return 1
            fronts[case.case_id] = want
            references[case.case_id] = reference_backend
            print(f"{workload} {case.case_id}: {len(want)} points, "
                  f"{measured['backend']} = {reference_backend} "
                  f"({time.perf_counter() - started:.1f} s)", flush=True)
        with open(expected_path(workload), "w", encoding="utf-8") as handle:
            json.dump({"reference_backend": references, "fronts": fronts},
                      handle, indent=0, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(FRONT_CASES)))
