"""The kernel-backend contract (and its pure-Python implementation).

A *kernel backend* supplies the hot inner loops of the cellular
automata — the NaSch update and the cyclic gap sweep — behind a fixed
method surface, ``nasch_step`` and ``cyclic_gaps``.  The CA models
(``NagelSchreckenberg``, ``MultiLaneRoad``) take a backend (or its
registry name) at construction and call only these methods, so
swapping ``kernels="python"`` for ``kernels="vector"`` changes *how*
the loops execute and nothing about what they compute: every backend
is bit-identical by contract, and the default-scenario goldens plus
the CA trajectory identity tests run under both built-in backends to
enforce it.

:class:`KernelBackend` doubles as the ``"python"`` backend: its
methods wrap the reference loops of :mod:`repro.kernels.pyref`
directly.  Subclasses override whichever methods they can execute
faster — :class:`~repro.kernels.vector.VectorBackend` with in-place
numpy array operations.

Third-party backends subclass this class and register a factory under
the ``kernels`` namespace; see docs/API.md "Kernel backends".
"""

from __future__ import annotations

import numpy as np

from repro.kernels import pyref


def _restore_backend(name: str) -> "KernelBackend":
    """Unpickle hook: re-resolve a backend by registry name.

    Backends are process-local singletons, so journals and copies
    serialise only the name and rebuild on load — a removed backend's
    name (``cjit``, ``numba``) resolves like ``auto`` with the usual
    one-time warning.  Simulation results are
    detached and hold no backend, but pickled CA models do, and so do
    results in journals written before results were detached (the
    backend their channel held then, restored through this hook).
    """
    from repro.kernels import resolve_backend

    return resolve_backend(name)


class KernelBackend:
    """Pure-Python reference backend (``kernels="python"``).

    The ground truth every other backend is verified against.  All
    methods operate on the caller's preallocated numpy arrays.
    """

    #: Canonical registry name of this backend.
    name = "python"
    #: Whether the hot loops run as compiled machine code (no built-in
    #: backend does; third-party backends may).
    compiled = False

    def __reduce__(self):
        return (_restore_backend, (self.name,))

    # -- CA ------------------------------------------------------------------

    def nasch_step(self, pos, vel, gaps_out, wrapped_out, draws,
                   use_draws, p, v_max, num_cells) -> int:
        """One NaSch update in place; see :func:`pyref.nasch_step`."""
        return pyref.nasch_step(
            pos, vel, gaps_out, wrapped_out, draws, use_draws,
            p, v_max, num_cells,
        )

    def cyclic_gaps(self, pos, num_cells) -> np.ndarray:
        """Gap to the vehicle ahead on a cyclic lane (ring order)."""
        out = np.empty(len(pos), dtype=np.int64)
        if len(pos):
            pyref.cyclic_gaps(pos, num_cells, out)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<kernel backend {self.name!r} compiled={self.compiled}>"
