"""Vectorized (numpy) kernel backend: what ``auto`` runs everywhere.

Every kernel is whole-array numpy over the caller's buffers — the NaSch
step computes gaps by slice subtraction and updates ``vel``/``pos`` with
``out=`` ufuncs, one violation mask and a masked in-place wrap —
computing exactly the integer results of the
reference loops in :mod:`repro.kernels.pyref` (same operands, exact
integer and IEEE comparison arithmetic), so the backend is
bit-identical to ``kernels="python"``.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import KernelBackend


def _ring_gaps(pos, num_cells, out) -> None:
    """Gap to the leader in ring order, for a non-empty lane, into ``out``.

    Cells lie in ``[0, num_cells)``, so every difference is above
    ``-num_cells`` and one masked add folds the negative ones onto the
    ring (the floored modulo, without an integer ``%``).
    """
    if len(pos) == 1:
        out[0] = num_cells - 1
        return
    np.subtract(pos[1:], pos[:-1], out=out[:-1])
    out[-1] = pos[0] - pos[-1]
    out -= 1
    np.add(out, num_cells, out=out, where=out < 0)


class VectorBackend(KernelBackend):
    """Numpy array kernels (``kernels="vector"``, what ``auto`` runs)."""

    name = "vector"

    # -- CA ------------------------------------------------------------------

    def nasch_step(self, pos, vel, gaps_out, wrapped_out, draws,
                   use_draws, p, v_max, num_cells) -> int:
        _ring_gaps(pos, num_cells, gaps_out)
        # Accelerate, brake to the gap, dawdle.  Dawdling is an unmasked
        # bool subtraction; only dawdlers pushed below zero clamp back to
        # it (a non-dawdler's negative velocity is an invariant
        # violation, reported below).
        np.add(vel, 1, out=vel)
        np.minimum(vel, v_max, out=vel)
        np.minimum(vel, gaps_out, out=vel)
        if use_draws:
            dawdle = draws < p
            np.subtract(vel, dawdle, out=vel)
            below = vel < 0
            if below.any():
                np.maximum(vel, 0, out=vel, where=below & dawdle)
        bad = (vel > gaps_out) | (vel < 0)
        if bad.any():
            return int(np.argmax(bad))
        # Move; new_vel <= gap < num_cells, so one subtraction wraps.
        np.add(pos, vel, out=pos)
        np.greater_equal(pos, num_cells, out=wrapped_out)
        np.subtract(pos, num_cells, out=pos, where=wrapped_out)
        return -1

    def cyclic_gaps(self, pos, num_cells) -> np.ndarray:
        gaps = np.empty(len(pos), dtype=np.int64)
        if len(pos):
            _ring_gaps(pos, num_cells, gaps)
        return gaps
