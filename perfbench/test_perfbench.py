"""Self-tests of the benchmark's helpers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cases  # noqa: E402
import fronts  # noqa: E402
import services  # noqa: E402
from measure import (  # noqa: E402
    MIN_OPS, cpu_seconds, descendants, peak_rss_mb, percentile, running_in_group,
)
from tracing import Tracer, self_times, window  # noqa: E402


# ---------------------------------------------------------------------- #
# the percentile rule
# ---------------------------------------------------------------------- #
def test_p90_needs_ten_samples_above_it():
    assert percentile(range(100), 90) == 89
    with pytest.raises(ValueError, match="9 above it"):
        percentile(range(99), 90)


def test_p50_needs_twenty_samples():
    assert percentile(range(20), 50) == 9
    with pytest.raises(ValueError):
        percentile(range(19), 50)


# ---------------------------------------------------------------------- #
# CPU and RSS across child processes
# ---------------------------------------------------------------------- #
_BURNER = textwrap.dedent("""
    import subprocess, sys, time
    ballast = b"x" * (48 << 20)
    child = None
    if sys.argv[1] == "parent":
        child = subprocess.Popen([sys.executable, __file__, "child"],
                                 stdout=subprocess.PIPE)
        child.stdout.readline()
    end = time.process_time() + 0.4
    while time.process_time() < end:
        pass
    print("ready", flush=True)
    sys.stdin.readline()
    if child is not None:
        child.terminate()
        child.wait()
""")


def test_cpu_and_rss_include_grandchildren(tmp_path):
    script = tmp_path / "burner.py"
    script.write_text(_BURNER)
    process = subprocess.Popen(
        [sys.executable, str(script), "parent"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        assert process.stdout.readline().strip() == "ready"
        pids = descendants(process.pid)
        assert len(pids) == 2
        assert cpu_seconds(pids) >= 0.7
        assert cpu_seconds(pids[:1]) < cpu_seconds(pids)
        assert peak_rss_mb(pids) >= 2 * 48
    finally:
        process.stdin.close()
        process.wait(timeout=30)
        process.stdout.close()


@pytest.mark.parametrize("end", ["stop", "kill"])
def test_ending_a_launch_ends_children_its_leader_left_behind(end):
    leader = subprocess.Popen(
        [sys.executable, "-c",
         "import subprocess, sys; "
         "print(subprocess.Popen([sys.executable, '-c', "
         "'import time; time.sleep(60)']).pid, flush=True)"],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    orphan = int(leader.stdout.readline())
    assert orphan in running_in_group(leader.pid)
    stack = services.Stack(processes=[leader])
    getattr(stack, end)()
    assert running_in_group(leader.pid) == []


# ---------------------------------------------------------------------- #
# span self time
# ---------------------------------------------------------------------- #
def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        ["parent", 0, 100, None, None],
        ["a", 10, 30, 0, None],
        ["b", 20, 50, 0, None],   # overlaps a: counted once
        ["c", 90, 120, 0, None],  # reaches past the parent: clipped
        ["grandchild", 12, 14, 1, None],  # not a direct child of parent
    ]
    assert self_times(spans) == [100 - 40 - 10, 18, 30, 30, 2]


def test_tracer_nests_calls_and_window_renumbers_parents():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(10_000)), "inner")
    tracer.call("outer", lambda: inner() + inner(), (), {})
    spans = tracer.spans
    assert [span[0] for span in spans] == ["outer", "inner", "inner"]
    assert spans[1][3] == spans[2][3] == 0
    own = self_times(spans)
    assert own[0] == (spans[0][2] - spans[0][1]) - own[1] - own[2]
    inner_only = window(spans, spans[1][1], spans[2][2])
    assert [span[3] for span in inner_only] == [None, None]


def test_a_call_that_raises_still_ends_its_span_without_attributes():
    tracer = Tracer()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.call("queue.claim", fail, (), {}, lambda *_: {"task_id": "t"})
    ((name, start, end, parent, attrs),) = tracer.spans
    assert (name, parent, attrs) == ("queue.claim", None, None)
    assert end >= start


# ---------------------------------------------------------------------- #
# inputs and output checks
# ---------------------------------------------------------------------- #
def test_service_plan_is_a_function_of_the_seed():
    first = services.plan_broker_batch(7)
    assert first == services.plan_broker_batch(7)
    assert first != services.plan_broker_batch(8)
    budgets = [request["budget"] for job in first.jobs for request in job]
    counted = services.BATCH_JOBS * services.BATCH_REQUESTS
    assert counted >= MIN_OPS
    assert len(budgets) == len(set(budgets)) == counted + 2 * services.BATCH_REQUESTS


def test_expected_service_answers_are_computed_once_per_request():
    from repro.attacktree import catalog, serialization

    plan = services.Plan(serialization.to_dict(catalog.factory()), [
        [{"problem": "dgc", "budget": 2.0}],
        [{"problem": "dgc", "budget": 2.0}, {"problem": "dgc", "budget": 5.0}],
    ])
    services.add_expected(plan)
    assert plan.expected[0][0] is plan.expected[1][0]
    assert [row["value"] for row in plan.expected[1]] == [200.0, 310.0]


def test_an_altered_expected_front_counts_as_a_failed_op(monkeypatch):
    picked, expected = fronts.prepare("dag-front")
    picked = picked[1:3]
    altered = {case.case_id: expected[case.case_id] for case in picked}
    first = picked[0].case_id
    altered[first] = [[cost, damage + 1.0] for cost, damage in altered[first]]
    monkeypatch.setattr(fronts, "prepare", lambda workload: (picked, altered))
    monkeypatch.setattr(fronts, "MIN_OPS", 1)
    outcome = fronts.run("dag-front", seed=1, seconds=0)
    assert outcome["passes"] == 1
    assert len(outcome["latencies_s"]) == 2
    assert outcome["failed"] == 1


def test_fronts_match_rejects_a_missing_point():
    front = [[0.0, 0.0], [1.0, 5.0]]
    assert cases.fronts_match(front, [list(p) for p in front])
    assert not cases.fronts_match(front[:1], front)


def test_service_results_ignore_only_timing_and_cache_fields():
    want = {"value": 5.0, "witness": ["a"], "wall_time_seconds": 0.1, "cache_hit": False}
    assert services.same_result(dict(want, wall_time_seconds=9.0, cache_hit=True), want)
    assert not services.same_result(dict(want, value=4.0), want)
    assert not services.same_result(None, want)
