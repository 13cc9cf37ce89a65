"""DET001 — kernel modules must be deterministic.

CI gates merges on sequential ≡ distributed ≡ shared-nothing
byte-identical solver results; that equality only holds if nothing in
the compute kernels reads a wall clock, an unseeded RNG or any other
per-process entropy source.  This rule bans those calls statically in
the kernel subtree, so a nondeterminism bug is caught at review time
instead of as a flaky cross-host mismatch three layers up.

``time.perf_counter``/``process_time`` stay legal: relative timing never
enters a result payload, and the bench harness measures kernels with
them.  ``random.Random(seed)`` with an explicit seed is the sanctioned
way to use randomness; ``random.Random()`` with no arguments seeds from
the OS and is banned.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from ..engine import Finding, Project, Rule, iter_calls

__all__ = ["DeterminismRule", "KERNEL_PATHS"]

#: The kernel subtree: everything whose output feeds byte-identical CI
#: equality.  ``engine/backends.py`` is the dispatch layer that wraps the
#: kernels, so it is held to the same bar.
KERNEL_PATHS = (
    "repro/core/",
    "repro/pareto/",
    "repro/milp/",
    "repro/extensions/",
    "repro/engine/backends.py",
)

#: Calls that read wall-clock time or per-process entropy.  Matched on
#: the import-resolved dotted name, so ``from time import time`` and
#: ``import time as t`` are both caught.
BANNED_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.localtime": "wall-clock read",
    "time.gmtime": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "uuid.uuid1": "host/time-derived id",
    "uuid.uuid4": "os-entropy id",
    "os.urandom": "os entropy",
    "os.getrandom": "os entropy",
}

#: Module-level functions of :mod:`random` share one process-global,
#: OS-seeded generator; any of them makes results run-dependent.
UNSEEDED_RANDOM_PREFIX = "random."

#: Everything under :mod:`secrets` is os-entropy by design.
SECRETS_PREFIX = "secrets."


class DeterminismRule(Rule):
    rule_id = "DET001"
    title = "no wall clock or unseeded randomness in kernel modules"
    rationale = (
        "byte-identical CI equality (sequential == distributed == "
        "shared-nothing) requires kernels to be pure functions of their "
        "inputs"
    )

    def __init__(self, kernel_paths: Sequence[str] = KERNEL_PATHS) -> None:
        self.kernel_paths = tuple(kernel_paths)

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules_matching(*self.kernel_paths):
            for call in iter_calls(module):
                resolved = module.resolve_name(call.func)
                if resolved is None:
                    continue
                yield from self._check_call(module, call, resolved)

    def _check_call(self, module, call: ast.Call, resolved: str) -> Iterator[Finding]:
        if resolved in BANNED_CALLS:
            yield module.finding(
                call,
                self.rule_id,
                f"{resolved} ({BANNED_CALLS[resolved]}) in kernel module "
                f"{module.package_path}: kernels must be deterministic",
            )
            return
        if resolved.startswith(SECRETS_PREFIX):
            yield module.finding(
                call,
                self.rule_id,
                f"{resolved} (os entropy) in kernel module "
                f"{module.package_path}: kernels must be deterministic",
            )
            return
        if resolved == "random.Random":
            if not call.args and not call.keywords:
                yield module.finding(
                    call,
                    self.rule_id,
                    "random.Random() without a seed in kernel module "
                    f"{module.package_path}: pass an explicit seed",
                )
            return
        if resolved == "random.SystemRandom":
            yield module.finding(
                call,
                self.rule_id,
                "random.SystemRandom (os entropy) in kernel module "
                f"{module.package_path}: kernels must be deterministic",
            )
            return
        if resolved.startswith(UNSEEDED_RANDOM_PREFIX):
            # Module-level random.* functions drive the shared OS-seeded
            # generator.  (random.Random/SystemRandom were handled above.)
            yield module.finding(
                call,
                self.rule_id,
                f"{resolved} uses the process-global unseeded RNG in kernel "
                f"module {module.package_path}: use random.Random(seed)",
            )
