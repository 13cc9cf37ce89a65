"""Golden-fixture tests: every rule proves it detects its violation.

Each rule gets (at least) one known-bad snippet that must produce a
finding and one known-good snippet that must stay clean.  Snippets are
inline strings parsed into :class:`SourceModule` directly — checked-in
bad ``.py`` files would trip the very linters they exist to test.
"""

import pytest

from repro.devtools.staticcheck import (
    Project,
    SourceModule,
    StaticCheckError,
    apply_baseline,
    default_rules,
    run_check,
)
from repro.devtools.staticcheck.rules import (
    BroadExceptRule,
    CliExitRule,
    DeferredImportRule,
    DeterminismRule,
    LazyPackageRule,
    LockRule,
    MetricsCatalogRule,
    TransactionRule,
    select_rules,
)


def findings_of(rule, *modules):
    return list(rule.check(Project(list(modules))))


# --------------------------------------------------------------------- #
# DET001
# --------------------------------------------------------------------- #
class TestDeterminism:
    def test_bad_kernel_calls_flagged(self):
        bad = SourceModule("repro/core/bad.py", (
            "import time\n"
            "import random\n"
            "import uuid\n"
            "from datetime import datetime\n"
            "def f():\n"
            "    a = time.time()\n"
            "    b = random.random()\n"
            "    c = datetime.now()\n"
            "    d = uuid.uuid4()\n"
            "    e = random.Random()\n"
        ))
        found = findings_of(DeterminismRule(), bad)
        assert len(found) == 5
        assert all(f.rule == "DET001" for f in found)
        assert {f.line for f in found} == {6, 7, 8, 9, 10}

    def test_good_kernel_stays_clean(self):
        good = SourceModule("repro/core/good.py", (
            "import random\n"
            "import time\n"
            "def f(seed):\n"
            "    rng = random.Random(seed)\n"      # seeded: sanctioned
            "    started = time.perf_counter()\n"  # relative timing: legal
            "    return rng.random(), started\n"
        ))
        assert findings_of(DeterminismRule(), good) == []

    def test_non_kernel_module_out_of_scope(self):
        elsewhere = SourceModule("repro/cli.py", (
            "import time\n"
            "def f():\n"
            "    return time.time()\n"
        ))
        assert findings_of(DeterminismRule(), elsewhere) == []

    def test_import_aliases_resolved(self):
        bad = SourceModule("repro/pareto/bad.py", (
            "from time import time as now\n"
            "def f():\n"
            "    return now()\n"
        ))
        found = findings_of(DeterminismRule(), bad)
        assert len(found) == 1 and "time.time" in found[0].message


# --------------------------------------------------------------------- #
# MET001
# --------------------------------------------------------------------- #
CATALOG = SourceModule("repro/obs/families.py", (
    "def queue_ops_total(registry=None):\n"
    "    return registry.counter(\n"
    "        'atcd_queue_ops_total', 'ops', labelnames=('op',))\n"
))


class TestMetricsCatalog:
    def test_rogue_registration_flagged(self):
        bad = SourceModule("repro/distributed/bad.py", (
            "def f(registry):\n"
            "    registry.counter('atcd_rogue_total', 'oops')\n"
        ))
        found = findings_of(MetricsCatalogRule(), CATALOG, bad)
        assert len(found) == 1
        assert "registered outside the catalog" in found[0].message

    def test_wrong_label_keys_flagged(self):
        bad = SourceModule("repro/distributed/bad.py", (
            "from ..obs import families as obs_families\n"
            "def f():\n"
            "    obs_families.queue_ops_total().inc(operation='claim')\n"
        ))
        found = findings_of(MetricsCatalogRule(), CATALOG, bad)
        assert len(found) == 1
        assert "('operation',)" in found[0].message
        assert "('op',)" in found[0].message

    def test_assigned_local_receiver_checked(self):
        bad = SourceModule("repro/obs/bad.py", (
            "from . import families\n"
            "def f(registry):\n"
            "    counter = families.queue_ops_total(registry)\n"
            "    counter.inc(task_id='t-1')\n"
        ))
        found = findings_of(MetricsCatalogRule(), CATALOG, bad)
        assert len(found) == 1 and found[0].line == 4

    def test_correct_usage_stays_clean(self):
        good = SourceModule("repro/distributed/good.py", (
            "from ..obs import families as obs_families\n"
            "def f():\n"
            "    obs_families.queue_ops_total().inc(op='claim')\n"
        ))
        assert findings_of(MetricsCatalogRule(), CATALOG, good) == []

    def test_no_catalog_in_project_is_a_noop(self):
        lone = SourceModule("scratch/tool.py", (
            "def f(registry):\n"
            "    registry.counter('atcd_whatever_total', 'x')\n"
        ))
        assert findings_of(MetricsCatalogRule(), lone) == []


# --------------------------------------------------------------------- #
# TXN001
# --------------------------------------------------------------------- #
class TestTransactions:
    def test_undisciplined_mutation_flagged(self):
        bad = SourceModule("repro/distributed/queue.py", (
            "class Q:\n"
            "    def renew(self):\n"
            "        self._connection.execute('UPDATE tasks SET x = 1')\n"
        ))
        found = findings_of(TransactionRule(), bad)
        assert len(found) == 1
        assert "UPDATE" in found[0].message

    def test_transaction_context_is_clean(self):
        good = SourceModule("repro/distributed/queue.py", (
            "class Q:\n"
            "    def renew(self):\n"
            "        with self._transaction() as connection:\n"
            "            connection.execute('UPDATE tasks SET x = 1')\n"
            "    def _vacuum(self):\n"
            "        self._connection.execute('VACUUM')\n"
            "    def _expire_sql(self, connection, now):\n"
            "        connection.execute('DELETE FROM tasks')\n"
        ))
        assert findings_of(TransactionRule(), good) == []

    def test_sql_outside_storage_layer_flagged(self):
        rogue = SourceModule("repro/service/api.py", (
            "def f(conn):\n"
            "    conn.execute('DELETE FROM tasks')\n"
        ))
        found = findings_of(TransactionRule(), rogue)
        assert len(found) == 1
        assert "outside the storage layer" in found[0].message

    def test_reads_are_not_mutations(self):
        good = SourceModule("repro/distributed/queue.py", (
            "class Q:\n"
            "    def peek(self):\n"
            "        return self._connection.execute(\n"
            "            'SELECT * FROM tasks').fetchall()\n"
        ))
        assert findings_of(TransactionRule(), good) == []


# --------------------------------------------------------------------- #
# LCK001
# --------------------------------------------------------------------- #
class TestLocks:
    def test_unguarded_global_mutation_flagged(self):
        bad = SourceModule("repro/obs/bad.py", (
            "import threading\n"
            "_lock = threading.Lock()\n"
            "_state = {}\n"
            "def f():\n"
            "    _state['k'] = 1\n"
        ))
        found = findings_of(LockRule(), bad)
        assert len(found) == 1
        assert "_state" in found[0].message and found[0].line == 5

    def test_guarded_mutation_is_clean(self):
        good = SourceModule("repro/obs/good.py", (
            "import threading\n"
            "_lock = threading.Lock()\n"
            "_state = {}\n"
            "def f():\n"
            "    with _lock:\n"
            "        _state['k'] = 1\n"
        ))
        assert findings_of(LockRule(), good) == []

    def test_abba_cycle_flagged(self):
        bad = SourceModule("repro/x.py", (
            "import threading\n"
            "_a = threading.Lock()\n"
            "_b = threading.Lock()\n"
            "def one():\n"
            "    with _a:\n"
            "        with _b:\n"
            "            pass\n"
            "def two():\n"
            "    with _b:\n"
            "        with _a:\n"
            "            pass\n"
        ))
        found = findings_of(LockRule(), bad)
        assert len(found) == 1
        assert "lock-order cycle" in found[0].message

    def test_consistent_order_is_clean(self):
        good = SourceModule("repro/x.py", (
            "import threading\n"
            "_a = threading.Lock()\n"
            "_b = threading.Lock()\n"
            "def one():\n"
            "    with _a:\n"
            "        with _b:\n"
            "            pass\n"
            "def two():\n"
            "    with _a, _b:\n"
            "        pass\n"
        ))
        assert findings_of(LockRule(), good) == []

    def test_cross_module_instance_lock_cycle(self):
        # `with self._lock:` nesting inside one class still canonicalizes
        # to a project-wide lock identity, so a self-nesting is a cycle.
        bad = SourceModule("repro/y.py", (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def f(self):\n"
            "        with self._lock:\n"
            "            with self._lock:\n"
            "                pass\n"
        ))
        found = findings_of(LockRule(), bad)
        assert len(found) == 1
        assert "y.C._lock" in found[0].message


# --------------------------------------------------------------------- #
# CLI001
# --------------------------------------------------------------------- #
class TestCliExits:
    def test_string_systemexit_flagged(self):
        bad = SourceModule("repro/cli.py", (
            "def f(path):\n"
            "    raise SystemExit(f'{path} is bad')\n"
        ))
        found = findings_of(CliExitRule(), bad)
        assert len(found) == 1
        assert "exits 1" in found[0].message

    def test_exit_one_and_naked_raise_flagged(self):
        bad = SourceModule("repro/cli.py", (
            "import sys\n"
            "def f():\n"
            "    sys.exit(1)\n"
            "def g():\n"
            "    raise SystemExit\n"
        ))
        found = findings_of(CliExitRule(), bad)
        assert len(found) == 2

    def test_sanctioned_patterns_stay_clean(self):
        good = SourceModule("repro/cli.py", (
            "import sys\n"
            "def f():\n"
            "    raise ValueError('user error for main() to format')\n"
            "def g():\n"
            "    return 2\n"
            "def h():\n"
            "    raise SystemExit(2)\n"
            "sys.exit(0)\n"
        ))
        assert findings_of(CliExitRule(), good) == []

    def test_other_modules_out_of_scope(self):
        elsewhere = SourceModule("repro/engine/session.py", (
            "def f():\n"
            "    raise SystemExit('fine here, not a CLI module')\n"
        ))
        assert findings_of(CliExitRule(), elsewhere) == []


# --------------------------------------------------------------------- #
# EXC001
# --------------------------------------------------------------------- #
class TestBroadExcept:
    def test_unjustified_broad_handler_flagged(self):
        bad = SourceModule("repro/anywhere.py", (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        pass\n"
        ))
        found = findings_of(BroadExceptRule(), bad)
        assert len(found) == 1 and found[0].rule == "EXC001"

    def test_bare_except_flagged(self):
        bad = SourceModule("repro/anywhere.py", (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except:\n"
            "        pass\n"
        ))
        assert len(findings_of(BroadExceptRule(), bad)) == 1

    def test_marker_allows(self):
        good = SourceModule("repro/anywhere.py", (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    # staticcheck: allow-broad-except(telemetry must not"
            " take down the operation)\n"
            "    except Exception:\n"
            "        pass\n"
        ))
        assert findings_of(BroadExceptRule(), good) == []

    def test_reraise_allows(self):
        good = SourceModule("repro/anywhere.py", (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        cleanup()\n"
            "        raise\n"
        ))
        assert findings_of(BroadExceptRule(), good) == []

    def test_narrow_handlers_out_of_scope(self):
        good = SourceModule("repro/anywhere.py", (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except (ValueError, KeyError):\n"
            "        pass\n"
        ))
        assert findings_of(BroadExceptRule(), good) == []


# --------------------------------------------------------------------- #
# IMP001
# --------------------------------------------------------------------- #
class TestDeferredImports:
    def test_module_level_imports_flagged(self):
        bad = SourceModule("repro/milp/bad.py", (
            "import numpy as np\n"
            "import scipy.optimize\n"
            "from networkx import DiGraph\n"
            "try:\n"
            "    import numpy\n"
            "except ImportError:\n"
            "    numpy = None\n"
            "class Solver:\n"
            "    from scipy.optimize import milp\n"
            "if not TYPE_CHECKING:\n"
            "    import networkx\n"
        ))
        found = findings_of(DeferredImportRule(), bad)
        assert all(f.rule == "IMP001" for f in found)
        assert [f.line for f in found] == [1, 2, 3, 5, 9, 11]

    def test_function_and_type_checking_imports_stay_clean(self):
        good = SourceModule("repro/milp/good.py", (
            "from typing import TYPE_CHECKING\n"
            "import typing\n"
            "import numbers\n"
            "if TYPE_CHECKING:\n"
            "    import numpy as np\n"
            "if typing.TYPE_CHECKING:\n"
            "    from networkx import DiGraph\n"
            "def solve() -> 'np.ndarray':\n"
            "    from scipy.optimize import milp\n"
            "    return milp\n"
            "class Solver:\n"
            "    def run(self):\n"
            "        import numpy\n"
            "        return numpy\n"
        ))
        assert findings_of(DeferredImportRule(), good) == []

    def test_else_branch_of_type_checking_is_module_level(self):
        bad = SourceModule("repro/anywhere.py", (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    pass\n"
            "else:\n"
            "    import numpy\n"
        ))
        assert [f.line for f in findings_of(DeferredImportRule(), bad)] == [5]

    def test_modules_outside_the_package_out_of_scope(self):
        elsewhere = SourceModule("benchmarks/plot.py", "import numpy\n")
        assert findings_of(DeferredImportRule(), elsewhere) == []


# --------------------------------------------------------------------- #
# IMP002
# --------------------------------------------------------------------- #
#: A stdlib-only sibling (may load eagerly) and one that imports repro.
TIMING = SourceModule("repro/bench/timing.py", "import time\nclock = time.perf_counter\n")
HARNESS = SourceModule("repro/bench/harness.py", "from ..engine import session\n")


class TestLazyPackages:
    def test_eager_package_imports_flagged(self):
        bad = SourceModule("repro/bench/__init__.py", (
            "from .harness import run\n"
            "from . import harness\n"
            "from ..engine import AnalysisSession\n"
            "import repro.engine.session\n"
            "import json\n"
            "from .._lazy import lazy_exports\n"
            "from .missing import thing\n"
            "if TYPE_CHECKING:\n"
            "    from .harness import run\n"
            "class Exports:\n"
            "    from .harness import run\n"
        ))
        found = findings_of(LazyPackageRule(), bad, TIMING, HARNESS)
        assert all(f.rule == "IMP002" for f in found)
        assert [f.line for f in found] == [1, 2, 3, 4, 5, 7, 9, 11]
        assert "repro.engine" in found[2].message

    def test_helper_and_repro_free_siblings_stay_clean(self):
        good = SourceModule("repro/bench/__init__.py", (
            "from __future__ import annotations\n"
            "from .._lazy import lazy_exports\n"
            "from .timing import clock\n"
            "from . import timing\n"
            "def __getattr__(name):\n"
            "    from . import harness\n"
            "    return getattr(harness, name)\n"
            "__getattr__, __dir__ = lazy_exports(globals(), {'run': 'harness'})\n"
        ))
        assert findings_of(LazyPackageRule(), good, TIMING, HARNESS) == []

    def test_top_level_package_and_nested_levels_resolve(self):
        top = SourceModule("repro/__init__.py", "from ._lazy import lazy_exports\n")
        nested = SourceModule(
            "repro/devtools/staticcheck/rules/__init__.py",
            "from ...._lazy import lazy_exports\nfrom ...engine import Rule\n",
        )
        found = findings_of(LazyPackageRule(), top, nested)
        assert [(f.path, f.line) for f in found] == [(nested.display_path, 2)]
        assert "repro.devtools.engine" in found[0].message

    def test_plain_modules_out_of_scope(self):
        module = SourceModule("repro/bench/runner.py", "from .harness import run\n")
        outside = SourceModule("tools/pkg/__init__.py", "from .harness import run\n")
        assert findings_of(LazyPackageRule(), module, outside, HARNESS) == []


# --------------------------------------------------------------------- #
# engine behaviors
# --------------------------------------------------------------------- #
class TestEngine:
    def test_disable_marker_suppresses(self):
        module = SourceModule("repro/core/bad.py", (
            "import time\n"
            "def f():\n"
            "    return time.time()"
            "  # staticcheck: disable=DET001(clock only feeds a log line)\n"
        ))
        report = run_check(Project([module]), [DeterminismRule()])
        assert report.findings == [] and report.suppressed == 1

    def test_syntax_error_is_user_error(self):
        with pytest.raises(StaticCheckError, match="does not parse"):
            SourceModule("repro/broken.py", "def f(:\n")

    def test_select_rules_rejects_unknown_id(self):
        with pytest.raises(StaticCheckError, match="unknown rule"):
            select_rules(["NOPE999"])

    def test_default_rules_cover_all_eight(self):
        ids = {rule.rule_id for rule in default_rules()}
        assert ids == {
            "DET001", "MET001", "TXN001", "LCK001", "CLI001", "EXC001",
            "IMP001", "IMP002",
        }

    def test_baseline_grandfathers_and_reports_stale(self):
        module = SourceModule("repro/core/bad.py", (
            "import time\n"
            "def f():\n"
            "    return time.time()\n"
        ))
        report = run_check(Project([module]), [DeterminismRule()])
        assert len(report.findings) == 1
        stale_entry = ("DET001", "repro/core/bad.py", "fixed long ago")
        baseline = [report.findings[0].fingerprint(), stale_entry]
        new, grandfathered, stale = apply_baseline(report.findings, baseline)
        assert new == [] and grandfathered == 1 and stale == [stale_entry]

    def test_fingerprint_ignores_line_numbers(self):
        shifted = SourceModule("repro/core/bad.py", (
            "import time\n"
            "\n"
            "\n"
            "def f():\n"
            "    return time.time()\n"
        ))
        original = SourceModule("repro/core/bad.py", (
            "import time\n"
            "def f():\n"
            "    return time.time()\n"
        ))
        a = run_check(Project([original]), [DeterminismRule()]).findings[0]
        b = run_check(Project([shifted]), [DeterminismRule()]).findings[0]
        assert a.line != b.line and a.fingerprint() == b.fingerprint()
