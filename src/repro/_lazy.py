"""PEP 562 import-on-use exports for package ``__init__`` modules.

A package that re-exports names from its submodules pays for every one
of them at ``import package`` — and so does every process that only
wanted one.  A live worker (``python -m repro serve``) runs a kernel, a
transport and one protocol node; it must not load the experiment
harness, the Oracle or numpy because ``repro/__init__`` happens to
re-export them.  Packages declare their exports with
:func:`lazy_exports` instead, mirror them under ``if TYPE_CHECKING:``
for type checkers, and each name is imported the first time it is read.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Iterable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Callable[[str], Any]:
    """The module-level ``__getattr__`` for ``package``.

    ``exports`` maps a module path to the names ``package`` re-exports
    from it — the same shape as the ``from module import names`` block
    it replaces.  A resolved name is cached in the package namespace, so
    the hook runs once per name.
    """
    origin = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
