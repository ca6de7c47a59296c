"""Numba kernel backend: ``@njit`` over the reference loops.

The reference functions in :mod:`repro.kernels.pyref` are written in
the nopython subset, so this backend simply wraps them with
``numba.njit`` — there is no second implementation to drift from the
ground truth.  Compilation is lazy (first call per signature) and
cached on disk by numba itself.

On a machine without numba the constructor raises
:class:`~repro.kernels.base.KernelUnavailable`;
:func:`repro.kernels.resolve_backend` catches it, warns once, and runs
the pure-Python path bit-identically.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import pyref
from repro.kernels.base import KernelUnavailable
from repro.kernels.vector import VectorBackend


class NumbaBackend(VectorBackend):
    """JIT-compiled kernels (``kernels="numba"``): every branchy
    reference loop, compiled."""

    name = "numba"
    compiled = True

    def __init__(self) -> None:
        super().__init__()
        try:
            from numba import njit
        except ImportError as exc:
            raise KernelUnavailable(f"numba is not installed: {exc}")
        jit = njit(cache=True)
        self._nasch_step = jit(pyref.nasch_step)
        self._cyclic_gaps = jit(pyref.cyclic_gaps)
        self._row_filter = jit(pyref.row_filter)
        self._dcf_consume_backoffs = jit(pyref.dcf_consume_backoffs)
        self._dcf_expired_navs = jit(pyref.dcf_expired_navs)

    def nasch_step(self, pos, vel, gaps_out, wrapped_out, draws,
                   use_draws, p, v_max, num_cells) -> int:
        return int(self._nasch_step(
            pos, vel, gaps_out, wrapped_out, draws, use_draws,
            p, v_max, num_cells,
        ))

    def cyclic_gaps(self, pos, num_cells) -> np.ndarray:
        out = np.empty(len(pos), dtype=np.int64)
        if len(pos):
            self._cyclic_gaps(
                np.ascontiguousarray(pos, dtype=np.int64), num_cells, out
            )
        return out

    def row_filter(self, powers, thresholds, sel_ids, sender_id):
        sel_ids = np.ascontiguousarray(sel_ids, dtype=np.int64)
        out = np.empty(len(powers), dtype=np.int64)
        k = int(self._row_filter(
            np.ascontiguousarray(powers, dtype=np.float64),
            np.ascontiguousarray(thresholds, dtype=np.float64),
            sel_ids, sender_id, out,
        ))
        return out[:k]

    def dcf_consume_backoffs(self, slots, started, idx, now, slot_s) -> None:
        self._dcf_consume_backoffs(
            slots, started, np.ascontiguousarray(idx, dtype=np.int64),
            now, slot_s,
        )

    def dcf_expired_navs(self, nav, now) -> np.ndarray:
        out = np.empty(len(nav), dtype=np.int64)
        k = int(self._dcf_expired_navs(nav, now, out))
        return out[:k]
