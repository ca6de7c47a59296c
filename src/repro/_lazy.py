"""Import on first use: ``"module:attr"`` paths and lazy package exports.

One trial runs one protocol, one initial placement and one traffic
model, so a process should load only those.  Two mechanisms defer a
component's import until something uses it:

* :mod:`repro.core.registry` declares every built-in component as a
  ``"module:attr"`` path and calls :func:`load` when the entry is first
  resolved;
* packages re-export their public names through :func:`lazy_exports`
  (PEP 562), so ``from repro.routing import Olsr`` imports
  :mod:`repro.routing.olsr` and no other protocol.

This module imports nothing from :mod:`repro`, so ``import repro``
stays cheap.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Tuple


def load(path: str) -> Any:
    """The object a ``"module:attr"`` path names, importing the module
    if needed; a bare ``"module"`` names the module itself."""
    module, _, attr = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """PEP 562 ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each re-exported name to the ``"module:attr"``
    path that defines it.  The first access imports that module and
    binds the name in the package, so later accesses are plain
    attribute reads; ``dir()`` lists the package's globals plus every
    export.  A package ends its ``__init__`` with::

        __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
    """

    def __getattr__(name: str) -> Any:
        try:
            path = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = load(path)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
