"""Pure-Python reference kernels: the bit-identity ground truth.

Every function here is the explicit-loop statement of one hot inner
loop — the NaSch update, cyclic gaps: plain ``for`` loops over
preallocated int64/float64/bool arrays, no Python containers, no
allocation, results returned as indices or written in place.  Each
one is the specification a faster backend is proven bit-identical
against (``tests/test_kernels.py``).

Bit-identity rules the kernels obey (see docs/API.md "Kernel
backends"):

* **No RNG inside a kernel.**  Randomness (dawdle draws) is drawn by
  the caller from the owning component's generator in the documented
  order and passed in as a pre-drawn variate array, so every backend
  consumes the stream identically.
* **No transcendental math inside a kernel.**  Kernels only do
  integer state evolution, IEEE +,-,*,/ and comparisons — operations
  that are exact (or correctly rounded) on every backend, so results
  match bit for bit across the python loops and numpy.
* **First-index tie-breaking.**  Where the vectorized code reports
  ``argmax`` of a violation mask, kernels report the first offending
  index; output index lists preserve input order.
"""

from __future__ import annotations


def nasch_step(pos, vel, gaps_out, wrapped_out, draws, use_draws,
               p, v_max, num_cells):
    """One NaSch update (accelerate/brake/dawdle/move) on a cyclic lane.

    ``pos``/``vel`` are int64 arrays in ring order and are updated in
    place; ``gaps_out`` (int64) and ``wrapped_out`` (bool) are scratch
    outputs.  ``draws`` holds the pre-drawn dawdle variates (consumed
    only when ``use_draws``; the caller draws ``rng.random(n)`` exactly
    when ``p > 0``, preserving stream order).  Returns the first index
    whose post-dawdle velocity violates the gap invariant — in which
    case ``pos`` is left untouched and no movement happens — or -1 on
    success.
    """
    n = pos.shape[0]
    bad = -1
    for i in range(n):
        if n == 1:
            gap = num_cells - 1
        else:
            gap = (pos[(i + 1) % n] - pos[i] - 1) % num_cells
        gaps_out[i] = gap
        v = vel[i] + 1
        if v > v_max:
            v = v_max
        if v > gap:
            v = gap
        if use_draws and draws[i] < p:
            v = v - 1
            if v < 0:
                v = 0
        vel[i] = v
        if (v > gap or v < 0) and bad < 0:
            bad = i
    if bad >= 0:
        return bad
    for i in range(n):
        new_pos = pos[i] + vel[i]
        if new_pos >= num_cells:
            new_pos -= num_cells
            wrapped_out[i] = True
        else:
            wrapped_out[i] = False
        pos[i] = new_pos
    return -1


def cyclic_gaps(pos, num_cells, out):
    """Free cells ahead of each vehicle on a cyclic lane (ring order)."""
    n = pos.shape[0]
    if n == 1:
        out[0] = num_cells - 1
        return
    for i in range(n):
        out[i] = (pos[(i + 1) % n] - pos[i] - 1) % num_cells

