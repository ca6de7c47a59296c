"""Registry-selectable kernel backends for the cellular automata's hot loops.

The ``kernels`` registry namespace names *where* the hot inner loops
run — NaSch CA stepping and cyclic gaps — without changing *what*
they compute (every backend is bit-identical
to the pure-Python reference; see :mod:`repro.kernels.pyref` for the
rules that make that guarantee hold).

Built-in backends:

``auto`` (the scenario default)
    The numpy ``vector`` backend, on every machine.
``python``
    The explicit-loop reference (ground truth for identity tests).
``vector``
    In-place numpy array kernels; needs nothing beyond numpy.
``cjit``, ``numba``
    Removed compiled backends, still accepted so saved scenarios,
    campaign fingerprints and pickled models load: each warns once per
    process and resolves like ``auto`` (results are identical on every
    backend by contract).

Backend instances are process-local singletons (cheap to share; runs
are single-threaded), cached per canonical name.
"""

from __future__ import annotations

import os
import sys
import warnings
from typing import Dict, Optional, Set

from repro.core import registry as _registry
from repro.kernels.base import KernelBackend
from repro.kernels.vector import VectorBackend

__all__ = [
    "KernelBackend",
    "VectorBackend",
    "resolve_backend",
]

#: Singleton cache: canonical backend name -> constructed instance.
_BACKENDS: Dict[str, KernelBackend] = {}
#: Removed backends' names: they still resolve, like ``auto``.
_REMOVED = frozenset({"numba", "cjit"})
#: Backend names whose fallback warning already fired this process.
_WARNED: Set[str] = set()
#: Source files under this directory belong to the package.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _outside_stacklevel() -> int:
    """``warnings.warn`` stacklevel of the first caller outside ``repro``:
    the user code that loaded the removed name, not the resolver."""
    level, frame = 1, sys._getframe(1)
    while frame is not None and os.path.abspath(
        frame.f_code.co_filename
    ).startswith(_PACKAGE_DIR + os.sep):
        level, frame = level + 1, frame.f_back
    return level


def take_removed_warning(name: str) -> Optional[str]:
    """The fallback warning for the removed backend ``name``, once.

    For callers that know better than a stack frame where the name came
    from (the CLI names the option or file).  None for a live name or
    one already warned about; afterwards resolving ``name`` is silent.
    """
    if name not in _REMOVED or name in _WARNED:
        return None
    _WARNED.add(name)
    return (
        f"kernels={name!r} unavailable (the {name} backend was removed); "
        "falling back to kernels='auto' (bit-identical)"
    )


def _fallback(name: str) -> KernelBackend:
    message = take_removed_warning(name)
    if message is not None:
        warnings.warn(
            message, RuntimeWarning, stacklevel=_outside_stacklevel()
        )
    return resolve_backend("auto")


def make_python(scenario=None) -> KernelBackend:
    """Pure-Python reference loops (the bit-identity ground truth)."""
    return KernelBackend()


def make_vector(scenario=None) -> KernelBackend:
    """Vectorized numpy kernels (always available)."""
    return VectorBackend()


def make_numba(scenario=None) -> KernelBackend:
    """The removed numba backend's name: warns once, resolves as auto."""
    return _fallback("numba")


def make_cjit(scenario=None) -> KernelBackend:
    """The removed generated-C backend's name: warns once, resolves as auto."""
    return _fallback("cjit")


def make_auto(scenario=None) -> KernelBackend:
    """The default backend: numpy ``vector`` on every machine."""
    return VectorBackend()


def resolve_backend(spec="auto") -> KernelBackend:
    """The backend instance for ``spec``.

    ``spec`` may be a :class:`KernelBackend` instance (returned as-is,
    the injection hook for tests and third-party code) or a registry
    name — resolved case-insensitively through the ``kernels``
    namespace, so registered third-party backends work anywhere a
    built-in name does.  Instances are cached per canonical name;
    removed backend names warn once and resolve like ``auto``.
    """
    if isinstance(spec, KernelBackend):
        return spec
    canonical = _registry.normalize("kernels", spec)
    backend = _BACKENDS.get(canonical)
    if backend is None:
        backend = _registry.resolve("kernels", canonical)(None)
        _BACKENDS[canonical] = backend
    return backend
