"""PEP 562 export tables: a package's optional names load on first use."""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType
from typing import Any, Callable


def lazy_exports(package: str, exports: dict[str, str]) -> Callable[[str], Any]:
    """The module ``__getattr__`` of ``package`` for ``exports``.

    ``exports`` maps each public name to the module defining it: a
    submodule of ``package`` by its bare name, any other module by its
    dotted path.  The first access imports that module and binds the value
    on the package, so later lookups are plain attribute reads.  No export
    may share its name with a submodule of ``package``: importing that
    submodule would bind the module over the export.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(_load(package, module), name)
        return value

    return __getattr__


def _load(package: str, module: str) -> ModuleType:
    return import_module(module if "." in module else f"{package}.{module}")
