"""TXN001 — mutating SQL runs inside the transaction helpers.

The queue's atomicity story (two workers can never claim one task) rests
on every read-check-update sequence running inside ``BEGIN IMMEDIATE``,
and the store's crash-safety on sqlite's connection context manager.
Both modules funnel writes through dedicated helpers —
``SqliteQueue._transaction()`` and ``SqliteStore._execute`` /
``with self._connection:`` — so a bare ``conn.execute("UPDATE ...")``
added in review is a latent race even if every current test passes.

The rule has two parts:

* inside the storage modules, a call executing a mutating statement
  (INSERT/UPDATE/DELETE/REPLACE/CREATE/DROP/ALTER) must be lexically
  within ``with ..._transaction():`` or ``with ...._connection:`` or one
  of the named helper functions;
* outside them, mutating SQL string literals must not appear at all —
  SQL lives in the storage layer, full stop.

``VACUUM`` and ``PRAGMA`` are exempt: sqlite *requires* them to run
outside any transaction, which is why ``_vacuum`` exists.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional, Sequence

from ..engine import (
    Finding,
    Project,
    Rule,
    SourceModule,
    iter_calls,
    iter_with_items,
    literal_str,
)

__all__ = ["TransactionRule", "SQL_MODULES"]

#: The modules allowed to contain SQL, and therefore checked for
#: transaction discipline.
SQL_MODULES = (
    "repro/distributed/queue.py",
    "repro/engine/store.py",
)

#: Functions that *are* the discipline: their bodies hold the lock /
#: open the transaction themselves.
HELPER_FUNCTIONS = ("_transaction", "_execute", "_query", "_vacuum")

_MUTATING_VERBS = ("INSERT", "UPDATE", "DELETE", "REPLACE", "CREATE", "DROP", "ALTER")
_FIRST_WORD = re.compile(r"^\s*([A-Za-z]+)")


def _mutating_verb(sql: str) -> Optional[str]:
    match = _FIRST_WORD.match(sql)
    if match and match.group(1).upper() in _MUTATING_VERBS:
        return match.group(1).upper()
    return None


def _parameter_names(function: ast.AST) -> set:
    args = function.args
    names = [a.arg for a in args.args + args.kwonlyargs + args.posonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return set(names)


def _execute_sql(call: ast.Call) -> Optional[str]:
    """The SQL literal if ``call`` is ``<x>.execute(<literal>, ...)``."""
    if (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in ("execute", "executemany", "executescript")
        and call.args
    ):
        return literal_str(call.args[0])
    return None


class TransactionRule(Rule):
    rule_id = "TXN001"
    title = "mutating SQL only inside the BEGIN IMMEDIATE helpers"
    rationale = (
        "queue claims and store writes are atomic across processes only "
        "because every mutation runs inside the transaction helpers"
    )

    def __init__(
        self,
        sql_modules: Sequence[str] = SQL_MODULES,
        helper_functions: Sequence[str] = HELPER_FUNCTIONS,
    ) -> None:
        self.sql_modules = tuple(sql_modules)
        self.helper_functions = tuple(helper_functions)

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            inside_sql_layer = module.package_path in self.sql_modules
            for call in iter_calls(module):
                sql = _execute_sql(call)
                if sql is None:
                    continue
                verb = _mutating_verb(sql)
                if verb is None:
                    continue
                if not inside_sql_layer:
                    yield module.finding(
                        call,
                        self.rule_id,
                        f"mutating SQL ({verb}) outside the storage layer "
                        f"({module.package_path}): route writes through the "
                        "queue/store APIs",
                    )
                elif not self._is_disciplined(module, call):
                    yield module.finding(
                        call,
                        self.rule_id,
                        f"mutating SQL ({verb}) executed outside a "
                        "transaction helper: wrap it in `with "
                        "self._transaction():` / `with self._connection:` "
                        "or one of " + ", ".join(self.helper_functions),
                    )

    # ------------------------------------------------------------------ #
    def _is_disciplined(self, module: SourceModule, call: ast.Call) -> bool:
        function = module.enclosing_function(call)
        if function is not None and function.name in self.helper_functions:
            return True
        for context_expr in iter_with_items(module, call):
            if self._is_transaction_context(module, context_expr):
                return True
        # ``connection.execute(...)`` where ``connection`` is a parameter
        # of the enclosing function: the only way callers obtain that
        # binding is ``with self._transaction() as connection:``, so the
        # transaction is managed one frame up (``_expire_sql`` pattern).
        # A bare ``self._connection.execute`` never matches — the
        # receiver must be a plain parameter name, not an attribute.
        if (
            function is not None
            and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id not in ("self", "cls")
            and call.func.value.id in _parameter_names(function)
        ):
            return True
        return False

    @staticmethod
    def _is_transaction_context(module: SourceModule, expr: ast.AST) -> bool:
        # ``with self._transaction() as conn:`` (any receiver chain).
        if isinstance(expr, ast.Call):
            dotted = module.dotted_name(expr.func)
            if dotted is not None and dotted.split(".")[-1] == "_transaction":
                return True
            return False
        # ``with self._connection:`` — sqlite3's own transaction manager.
        dotted = module.dotted_name(expr)
        return dotted is not None and dotted.split(".")[-1] == "_connection"
