"""Vectorized (numpy) kernel backend: the always-available fast path.

These are the exact numpy expressions the components executed inline
before the kernels package existed — ``np.roll``-based gaps, masked
``np.where`` dawdling, masked receiver filtering — so the
``"vector"`` backend is bit-identical to the historical behaviour *by
construction* (same operations on the same operands), and serves as
the fallback when no compiled backend can be built.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import KernelBackend


class VectorBackend(KernelBackend):
    """Numpy array kernels (``kernels="vector"``)."""

    name = "vector"
    compiled = False

    # -- CA ------------------------------------------------------------------

    def nasch_step(self, pos, vel, gaps_out, wrapped_out, draws,
                   use_draws, p, v_max, num_cells) -> int:
        n = len(pos)
        if n == 1:
            gaps = np.array([num_cells - 1], dtype=np.int64)
        else:
            leader = np.roll(pos, -1)
            gaps = (leader - pos - 1) % num_cells
        gaps_out[:] = gaps
        new_vel = np.minimum(vel + 1, v_max)
        new_vel = np.minimum(new_vel, gaps)
        if use_draws:
            dawdle = draws < p
            new_vel = np.where(dawdle, np.maximum(new_vel - 1, 0), new_vel)
        vel[:] = new_vel
        if np.any(new_vel > gaps) or np.any(new_vel < 0):
            return int(np.argmax((new_vel > gaps) | (new_vel < 0)))
        new_pos = pos + new_vel
        wrapped_out[:] = new_pos >= num_cells
        pos[:] = new_pos % num_cells
        return -1

    def cyclic_gaps(self, pos, num_cells) -> np.ndarray:
        n = len(pos)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if n == 1:
            return np.array([num_cells - 1], dtype=np.int64)
        leader = np.roll(pos, -1)
        return (leader - pos - 1) % num_cells

    # -- PHY link-cache rows -------------------------------------------------

    def row_filter(self, powers, thresholds, sel_ids, sender_id):
        mask = (powers >= thresholds) & (sel_ids != sender_id)
        return np.nonzero(mask)[0]
