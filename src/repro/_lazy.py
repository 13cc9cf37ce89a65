"""Lazy package exports (PEP 562) for the package ``__init__`` modules.

A package ``__init__`` that imports its submodules eagerly makes every
process that touches the package pay for all of them: the broker would
load the solver kernels, a fleet worker the HTTP service.  Instead each
package declares ``{public name: submodule}`` and hands the table to
:func:`lazy_exports`; the submodule is imported on the first access of
one of its names, and the value is stored in the package namespace, so
every later lookup is a plain attribute read.

This module imports nothing from ``repro``: every package ``__init__``
may import it (``atcd check`` rule IMP002).
"""

from importlib import import_module


def lazy_exports(namespace, exports):
    """Return ``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``, resolving the names in ``exports`` on first access.

    ``exports`` maps each public name to the module that defines it,
    relative to the package (``"tree"``, ``"engine.session"``).  A value
    ``"module:attr"`` exports ``attr`` under another name, and a name
    equal to the last component of its module exports the module itself.
    """
    package = namespace["__name__"]

    def __getattr__(name):
        try:
            target = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module_name, _, attribute = target.partition(":")
        module = import_module(f".{module_name}", package)
        if not attribute and module_name.rpartition(".")[2] == name:
            value = module
        else:
            value = getattr(module, attribute or name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
