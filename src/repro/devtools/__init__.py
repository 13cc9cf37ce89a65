"""Developer tooling that ships with the package.

:mod:`repro.devtools.staticcheck` is the project-invariant static
analyzer behind ``atcd check`` — the machine-checked form of the
invariants ``benchmarks/DESIGN.md`` states in prose (deterministic
kernels, closed metric catalogs, transaction discipline, lock hygiene,
the CLI exit-code contract).  It lives inside the installed package, not
in a scripts directory, so CI, pre-commit hooks and downstream forks all
run the exact rule set the code was written against.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "staticcheck": "staticcheck",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
