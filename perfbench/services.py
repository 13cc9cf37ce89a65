"""The service workload, ``broker-batch``.

Untraced runs drive the production CLI (``atcd serve`` plus ``atcd api``).
Traced runs replace the API and worker processes by ``host.py``, which
builds the same public objects with timing proxies around them.  Either
way the benchmark talks to the service over HTTP only, the way a user
does, and checks every result against an in-process ``run_request`` on
the same inputs.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from measure import (
    SETUP_LAUNCHES, cpu_seconds, descendants, now_ns, open_paths,
    peak_rss_mb, running_in_group,
)

HERE = os.path.dirname(os.path.abspath(__file__))

TENANT, TENANT_KEY = "bench", "bench-key-0123456789abcdef"
#: Requests per job.
BATCH_REQUESTS = 20
#: Counted jobs per run: 240 ops.  Fixed rather than sized from
#: ``--seconds``, because every status call scans the whole queue, so the
#: cost of an op grows with the number of jobs run before it; the job count
#: is part of what the workload is.  A run's window lasts ~18 s on a 2-vCPU
#: VM.
BATCH_JOBS = 12
#: Size of the seeded model.
BATCH_MODEL_SIZE = 15
WORKERS = 2
READY_TIMEOUT_S = 60.0
_URL = re.compile(r"(http://[0-9.]+:\d+)")


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #
def batch_model(seed: int) -> Dict[str, Any]:
    """The small seeded tree every request analyses."""
    from repro.attacktree import serialization
    from repro.workloads import ScenarioSpec, expand

    (case,) = expand(ScenarioSpec(
        family="random", shape="treelike", sizes=(BATCH_MODEL_SIZE,), seed=seed
    ))
    return serialization.to_dict(case.model)


def write_keys(path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"tenants": [{"name": TENANT, "key": TENANT_KEY}]}, handle)


@dataclass
class Plan:
    """Everything a run sends and the answers it must get back.

    Made from the seed before the program starts, so the measured window
    only submits, reads and compares.
    """

    model: Dict[str, Any]
    #: The requests of each job, in submit order.
    jobs: List[List[Dict[str, Any]]]
    #: In-process ``run_request`` answers, aligned with ``jobs``.
    expected: List[List[Dict[str, Any]]] = field(default_factory=list)


def plan_broker_batch(seed: int) -> Plan:
    """``BATCH_REQUESTS`` DgC requests per job, every budget distinct: a
    primer job, the counted jobs and the one left queued at the end."""
    rng = random.Random(f"broker-batch:{seed}")
    used = set()
    jobs = []
    for _ in range(BATCH_JOBS + 2):
        requests: List[Dict[str, Any]] = []
        while len(requests) < BATCH_REQUESTS:
            budget = round(rng.uniform(1.0, 60.0), 3)
            if budget not in used:
                used.add(budget)
                requests.append({"problem": "dgc", "budget": budget})
        jobs.append(requests)
    return Plan(batch_model(seed), jobs)


def add_expected(plan: Plan) -> None:
    """Fill ``plan.expected`` with in-process ``run_request`` answers,
    computed once per distinct request."""
    from repro.attacktree import serialization
    from repro.engine import AnalysisRequest
    from repro.engine.session import run_request

    model = serialization.from_dict(plan.model)
    answers: Dict[str, Dict[str, Any]] = {}
    for requests in plan.jobs:
        row = []
        for request in requests:
            key = json.dumps(request, sort_keys=True)
            if key not in answers:
                answers[key] = run_request(
                    model, AnalysisRequest.from_dict(request)
                ).to_dict()
            row.append(answers[key])
        plan.expected.append(row)


def same_result(got: Optional[Dict[str, Any]], want: Dict[str, Any]) -> bool:
    """Equal results, ignoring timing and whether a cache answered."""
    if not isinstance(got, dict):
        return False
    volatile = ("wall_time_seconds", "cache_hit")
    return {k: v for k, v in got.items() if k not in volatile} == {
        k: v for k, v in want.items() if k not in volatile
    }


# ---------------------------------------------------------------------- #
# the program under test
# ---------------------------------------------------------------------- #
@dataclass
class Stack:
    """The processes of one launch, in start order, plus where they listen."""

    processes: List[subprocess.Popen] = field(default_factory=list)
    url: str = ""
    setup_s: float = 0.0

    def pids(self) -> List[int]:
        """Every live process of the program, children included."""
        pids: List[int] = []
        for process in self.processes:
            if process.poll() is None:
                pids.extend(descendants(process.pid))
        return pids

    def stop(self) -> None:
        """SIGTERM newest first, wait for each to end, then end whatever is
        left in its process group."""
        for process in reversed(self.processes):
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            _end_group(process.pid)
            if process.stdout is not None:
                process.stdout.close()

    def kill(self) -> None:
        """SIGKILL every process group of the launch and wait for each to
        empty.  For launches made only to time set-up: their state files
        are thrown away, and a graceful ``atcd`` shutdown takes seconds."""
        for process in self.processes:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
            _end_group(process.pid)
            if process.stdout is not None:
                process.stdout.close()


def _end_group(pgid: int) -> None:
    """Signal a process group until every member has exited.

    ``atcd api`` keeps its workers in its own group.  Its fleet supervisor
    can respawn a worker while the service shuts down against a broker
    queue, and that worker outlives the service; it must not outlive the
    run.
    """
    deadline = time.monotonic() + 10.0
    while running_in_group(pgid):
        late = time.monotonic() > deadline
        try:
            os.killpg(pgid, signal.SIGKILL if late else signal.SIGTERM)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline + 5.0:
            raise RuntimeError(f"process group {pgid} would not end")
        time.sleep(0.05)


def _spawn(command: List[str], log_path: str, env: Dict[str, str]) -> subprocess.Popen:
    # A session of its own makes the process lead a group that its
    # children join, so Stack.stop can find every one of them.
    with open(log_path, "ab") as log:
        return subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=log, env=env, text=True,
            start_new_session=True,
        )


def _read_url(process: subprocess.Popen, log_path: str) -> str:
    line = process.stdout.readline()
    match = _URL.search(line)
    if match is None:
        process.wait(timeout=30)
        with open(log_path, encoding="utf-8", errors="replace") as handle:
            tail = handle.read()[-2000:]
        raise RuntimeError(f"program did not start: {line!r}\n{tail}")
    return match.group(1)


def _wait_ping(url: str) -> None:
    host, port = url[len("http://"):].split(":")
    deadline = time.monotonic() + READY_TIMEOUT_S
    while True:
        connection = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            connection.request("GET", "/ping")
            if connection.getresponse().status == 200:
                return
        except OSError:
            pass
        finally:
            connection.close()
        if time.monotonic() > deadline:
            raise RuntimeError(f"{url} never answered /ping")
        time.sleep(0.002)


def _wait_workers(find_pids, count: int) -> None:
    """Poll every 2 ms until ``count`` workers hold a socket to the broker."""
    deadline = time.monotonic() + READY_TIMEOUT_S
    while True:
        pids = find_pids()
        if len(pids) >= count and all(
            any(target.startswith("socket:") for target in open_paths(pid))
            for pid in pids
        ):
            return
        if time.monotonic() > deadline:
            raise RuntimeError("workers never became ready")
        time.sleep(0.002)


def launch(run_dir: str, trace: bool, env: Dict[str, str]) -> Stack:
    """Start the program from fresh state files; return once an op can run."""
    queue_path = os.path.join(run_dir, "queue.sqlite")
    store_path = os.path.join(run_dir, "store.sqlite")
    for path in (queue_path, store_path):
        for suffix in ("", "-journal", "-wal", "-shm"):
            if os.path.exists(path + suffix):
                os.remove(path + suffix)
    keys = os.path.join(run_dir, "keys.json")
    log = os.path.join(run_dir, "program.log")
    workers = WORKERS
    python = sys.executable
    host = os.path.join(HERE, "host.py")
    spans = os.path.join(run_dir, "spans")

    stack = Stack()
    started = time.perf_counter()
    try:
        serve = _spawn([
            python, "-m", "repro.cli", "serve", "--queue", queue_path,
            "--store", store_path, "--port", "0",
        ], log, env)
        stack.processes.append(serve)
        queue_arg = store_arg = _read_url(serve, log)
        if trace:
            api = _spawn([python, host, "api", "--queue", queue_arg,
                          "--keys", keys, "--spans", spans], log, env)
            stack.processes.append(api)
            hosted = [
                _spawn([python, host, "worker", "--queue", queue_arg,
                        "--store", store_arg, "--worker-id", f"w{index}",
                        "--spans", spans], log, env)
                for index in range(workers)
            ]
            stack.processes.extend(hosted)
            find_workers = lambda: [p.pid for p in hosted]  # noqa: E731
        else:
            api = _spawn([
                python, "-m", "repro.cli", "api", "--queue", queue_arg,
                "--store", store_arg, "--keys", keys, "--port", "0",
                "--workers", str(workers),
            ], log, env)
            stack.processes.append(api)
            find_workers = lambda: descendants(api.pid)[1:]  # noqa: E731
        stack.url = _read_url(api, log)
        _wait_ping(stack.url)
        _wait_workers(find_workers, workers)
    except BaseException:
        stack.stop()
        raise
    stack.setup_s = time.perf_counter() - started
    return stack


# ---------------------------------------------------------------------- #
# the client
# ---------------------------------------------------------------------- #
@dataclass
class Op:
    """One analysis request as the client saw it (CLOCK_MONOTONIC ns)."""

    job_id: str
    index: int
    submit_start: int
    submit_end: int
    read: int = 0
    ok: bool = False


class Client:
    """Submits on one keep-alive connection; streams on a fresh one."""

    def __init__(self, url: str) -> None:
        host, port = url[len("http://"):].split(":")
        self.host, self.port = host, int(port)
        self.connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
        self.headers = {"X-Api-Key": TENANT_KEY, "Content-Type": "application/json"}

    def submit(self, model: Dict[str, Any], requests: List[Dict[str, Any]]):
        """POST one job; returns ``(job_id or None, start_ns, end_ns)``."""
        body = json.dumps({"model": model, "requests": requests}).encode("utf-8")
        start = now_ns()
        self.connection.request("POST", "/v1/jobs", body=body, headers=self.headers)
        response = self.connection.getresponse()
        document = json.loads(response.read())
        end = now_ns()
        job_id = document["job"]["job_id"] if response.status == 202 else None
        return job_id, start, end

    def stream(self, job_id: str):
        """Yield ``(read_ns, event)`` for every NDJSON line of the job.

        The caller stops reading once it has every result it waits for;
        closing the connection then ends the stream early, as any client
        that does not need the terminal line would.
        """
        connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            connection.request("GET", f"/v1/jobs/{job_id}/stream", headers=self.headers)
            response = connection.getresponse()
            while True:
                line = response.readline()
                if not line:
                    return
                yield now_ns(), json.loads(line)
        finally:
            connection.close()

    def cancel(self, job_id: str) -> None:
        self.connection.request(
            "POST", f"/v1/jobs/{job_id}/cancel", body=b"", headers=self.headers
        )
        self.connection.getresponse().read()

    def close(self) -> None:
        self.connection.close()


class Window:
    """The measured interval: wall time, CLOCK_MONOTONIC bounds and the
    CPU the program's processes used inside it."""

    def __init__(self, pids: List[int]) -> None:
        self.pids = pids

    def open(self) -> None:
        self.cpu_s = -cpu_seconds(self.pids)
        self.start_ns = now_ns()
        self._started = time.perf_counter()

    def close(self) -> None:
        self.seconds = time.perf_counter() - self._started
        self.end_ns = now_ns()
        self.cpu_s += cpu_seconds(self.pids)


def drive_broker_batch(client: Client, plan: Plan, window: Window) -> List[Op]:
    """Stream one batch job while the next one is already queued.

    An op is one request: from its job's submit to its result line.  The
    pipeline is primed with two jobs and the first is not counted; every
    counted job had one job ahead of it when submitted and one queued
    behind it while it ran.  The job still queued at the end is cancelled.
    """
    pending = iter(zip(plan.jobs, plan.expected))

    def submit() -> Dict[str, Any]:
        requests, want = next(pending)
        job_id, start, end = client.submit(plan.model, requests)
        return {"job_id": job_id, "expected": want, "start": start, "end": end}

    def drain(job: Dict[str, Any]) -> List[Op]:
        job_ops = [
            Op(job["job_id"] or "", index, job["start"], job["end"])
            for index in range(len(job["expected"]))
        ]
        if job["job_id"] is None:
            return job_ops
        unread = len(job_ops)
        for read, event in client.stream(job["job_id"]):
            if event["event"] != "result":
                break
            op = job_ops[event["index"]]
            op.read = read
            op.ok = same_result(event["result"], job["expected"][op.index])
            unread -= 1
            if not unread:
                break
        return job_ops

    primer, queued = submit(), submit()
    drain(primer)
    ops: List[Op] = []
    window.open()
    for _ in range(len(plan.jobs) - 2):
        head, queued = queued, submit()
        ops.extend(drain(head))
    window.close()
    if queued["job_id"] is not None:
        client.cancel(queued["job_id"])
    return ops


# ---------------------------------------------------------------------- #
# one run
# ---------------------------------------------------------------------- #
def _warm_up(client: Client, model: Dict[str, Any], requests: List[Dict[str, Any]]) -> None:
    """One job outside the window: worker imports and first-use set-up."""
    job_id, _, _ = client.submit(model, requests)
    if job_id is None:
        raise RuntimeError("the warm-up job was refused")
    for _ in client.stream(job_id):
        pass


def run(seed: int, trace: bool, run_dir: str, env: Dict[str, str]) -> Dict[str, Any]:
    write_keys(os.path.join(run_dir, "keys.json"))
    plan = plan_broker_batch(seed)
    add_expected(plan)
    setups = []
    stack = None
    for _ in range(1 if trace else SETUP_LAUNCHES):
        if stack is not None:
            stack.kill()
        stack = launch(run_dir, trace, env)
        setups.append(stack.setup_s)
    client = Client(stack.url)
    try:
        _warm_up(client, plan.model, [{"problem": "dgc", "budget": b} for b in (0.25, 0.5)])
        pids = stack.pids()
        window = Window(pids)
        ops = drive_broker_batch(client, plan, window)
        rss = peak_rss_mb(pids)
    finally:
        client.close()
        stack.stop()
    spans: Dict[str, List[Any]] = {"api": [], "worker": []}
    if trace:
        for name in sorted(os.listdir(run_dir)):
            if name.startswith("spans-") and name.endswith(".json"):
                with open(os.path.join(run_dir, name), encoding="utf-8") as handle:
                    document = json.load(handle)
                spans[document["role"]].append(document["spans"])
    return {
        "ops": ops,
        "latencies_s": [
            (op.read - op.submit_start) / 1e9 if op.ok else float("inf")
            for op in ops
        ],
        "failed": sum(1 for op in ops if not op.ok),
        "window_s": window.seconds,
        "window_ns": (window.start_ns, window.end_ns),
        "cpu_s": window.cpu_s,
        "peak_rss_mb": rss,
        "setups_s": setups,
        "spans": spans,
    }
