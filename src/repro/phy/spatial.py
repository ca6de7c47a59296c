"""Spatial neighbor culling for the channel's receive fan-out.

At city scale (thousands of vehicles) the dense link table lists every
radio in every sender's row, so each position slot costs ``N^2``
distances — O(N^2) work that collapses somewhere past a few hundred
nodes.  But the carrier-sense threshold already makes deliveries *local*:
a signal below it is dropped by the channel, so the receive fan-out only
ever needs the nodes within the maximum link range.  A uniform grid
(cell hash) over the lane geometry yields exactly that neighborhood in
O(1) per sender: with the cell size at least the cull radius, every node
within the radius of a sender lies in the sender's own cell or one of
its eight neighbors, so a 3 x 3 cell scan is a guaranteed superset of
the in-range nodes (nodes exactly *on* the radius or on a cell boundary
included — the containment argument uses closed inequalities
throughout).

Culling is **exact** for deterministic propagation when the cull radius
covers the maximum link range (the distance at which received power
falls to the carrier-sense threshold): every culled link would have been
dropped by the threshold filter anyway, so the delivered frame set,
received powers, propagation delays and telemetry counters are
bit-identical to the dense path — the contract the scale smoke and the
grid-vs-golden regression tests lock in.  Stochastic models (Nakagami,
log-normal shadowing) draw fading per *visited* link, so culling changes
RNG consumption: a grid run with stochastic propagation is seeded and
deterministic in its own right, but not draw-for-draw identical to the
dense run (see docs/API.md, "Spatial indexing").

Selection is declarative: ``Scenario(spatial="grid")`` resolves through
the ``spatial`` registry namespace (``"dense"`` — the default — keeps
the exact O(N^2) path), and the cell size derives from the scenario's
carrier-sense radius unless ``cull_radius_m`` overrides it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.util.errors import ConfigError


class UniformGridIndex:
    """Uniform-grid cell hash over the node position matrix.

    Nodes are bucketed by ``floor(position / cell_size)`` per axis; each
    cell gets one integer key laid out so that the eight neighbours of a
    cell are fixed key offsets away, and :meth:`rebuild` sorts the nodes
    by key once.  Every query is then a batch of ``searchsorted`` calls
    over the sorted keys: :meth:`candidates` for one node,
    :meth:`neighbor_table` for a whole node set at once.  With
    ``cell_size_m >= cull radius`` a node's 3 x 3 neighbourhood is a
    superset of all nodes within the radius, and the channel's
    carrier-sense filter does the exact trimming — the index never has
    to compute a distance itself.

    Args:
        cell_size_m: grid pitch in metres (= the cull radius; larger
            cells only widen the candidate superset).
    """

    def __init__(self, cell_size_m: float) -> None:
        if cell_size_m <= 0:
            raise ConfigError(
                f"spatial cell size must be > 0 m, got {cell_size_m}"
            )
        self.cell_size_m = float(cell_size_m)
        self._keys: Optional[np.ndarray] = None
        self._order: Optional[np.ndarray] = None
        self._sorted_keys: Optional[np.ndarray] = None
        self._deltas: Optional[np.ndarray] = None

    @property
    def num_nodes(self) -> int:
        """Nodes covered by the last :meth:`rebuild` (0 before any)."""
        return 0 if self._keys is None else len(self._keys)

    @property
    def num_occupied_cells(self) -> int:
        """Non-empty grid cells after the last :meth:`rebuild`."""
        if self._sorted_keys is None or not len(self._sorted_keys):
            return 0
        return 1 + int(np.count_nonzero(np.diff(self._sorted_keys)))

    @property
    def mean_occupancy(self) -> float:
        """Average nodes per occupied cell (0.0 before any rebuild)."""
        if not self.num_occupied_cells:
            return 0.0
        return self.num_nodes / self.num_occupied_cells

    def rebuild(self, positions: np.ndarray) -> None:
        """Re-bucket every node for a new ``(N, 2)`` position matrix.

        O(N log N) (one sort); called once per position slot by the
        channel, in place of the dense table's O(N^2) distances.
        """
        positions = np.asarray(positions, dtype=float)
        coords = np.floor(positions / self.cell_size_m).astype(np.int64)
        if len(coords):
            # Shift both axes so every occupied cell has a free border
            # cell on each side: a neighbour's y index then stays in
            # [0, height), and key + dx * height + dy is the neighbour
            # cell's key with no aliasing across columns.
            low = coords.min(axis=0) - 1
            height = int(coords[:, 1].max() - low[1]) + 2
            keys = (coords[:, 0] - low[0]) * height + (coords[:, 1] - low[1])
        else:
            height = 1
            keys = np.empty(0, dtype=np.int64)
        self._keys = keys
        self._order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._order]
        self._deltas = np.array(
            [dx * height + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)],
            dtype=np.int64,
        )

    def _ranges(self, sorted_keys: np.ndarray, query_keys: np.ndarray):
        """Per query cell, the ``(start, count)`` runs of its 3 x 3
        neighbourhood in ``sorted_keys``, flattened query-major."""
        wanted = (query_keys[:, None] + self._deltas).ravel()
        start = np.searchsorted(sorted_keys, wanted, side="left")
        count = np.searchsorted(sorted_keys, wanted, side="right") - start
        return start, count

    def _require_rebuilt(self) -> None:
        if self._keys is None:
            raise ConfigError(
                "spatial index queried before rebuild(); the channel "
                "must rebuild the index for each position slot first"
            )

    def candidates(self, node: int) -> np.ndarray:
        """Indices of every node in the 3 x 3 neighborhood of ``node``.

        A superset of all nodes within ``cell_size_m`` of ``node``
        (including ``node`` itself); empty neighbor cells contribute
        nothing.  Order is unspecified.
        """
        self._require_rebuilt()
        start, count = self._ranges(self._sorted_keys, self._keys[[node]])
        runs = zip(start.tolist(), count.tolist())
        return np.concatenate([self._order[s:s + c] for s, c in runs])

    def neighbor_table(
        self, nodes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every node's 3 x 3 neighbourhood within ``nodes``, as CSR.

        ``nodes`` is a list of distinct node indices (the channel passes
        its radios in registration order).  Returns ``(offsets, cols)``:
        row ``i`` — the neighbourhood of ``nodes[i]``, itself included —
        is ``cols[offsets[i]:offsets[i + 1]]`` (int32), positions *into*
        ``nodes`` in ascending order.  Vectorized: 9 ``searchsorted``
        lookups per occupied cell, then ``repeat`` and one sort per
        block of rows (see :func:`row_blocks`); no Python loop over
        cells or nodes.
        """
        self._require_rebuilt()
        nodes = np.asarray(nodes, dtype=np.intp)
        n = len(nodes)
        # The members of ``nodes`` in cell-key order, as positions into
        # ``nodes``; trace nodes without a radio drop out here.
        member = np.full(len(self._keys), -1, dtype=np.int64)
        member[nodes] = np.arange(n)
        member = member[self._order]
        present = member >= 0
        members = member[present]
        sorted_keys = self._sorted_keys[present]
        # Nodes sharing a cell share a neighbourhood: look the 9 runs up
        # once per occupied cell, then hand them to the cell's nodes.
        first = np.ones(len(sorted_keys), dtype=bool)
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        cells = sorted_keys[first]
        start, count = self._ranges(sorted_keys, cells)
        start = start.reshape(-1, 9)
        count = count.reshape(-1, 9)
        node_cell = np.searchsorted(cells, self._keys[nodes])
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(count.sum(axis=1)[node_cell], out=offsets[1:])
        cols = np.empty(offsets[-1], dtype=np.int32)
        for r0, r1, lo, hi in row_blocks(offsets):
            # Expand every (node, neighbour cell) run into its members...
            runs = node_cell[r0:r1]
            run_len = count[runs].ravel()
            run_end = np.cumsum(run_len)
            block = np.arange(hi - lo, dtype=np.int64)
            block -= np.repeat(run_end - run_len - start[runs].ravel(),
                               run_len)
            block = members[block]
            # ...then sort the (row, col) composite: rows are already
            # contiguous and in order, so each row's cols come out
            # ascending.
            row_base = np.repeat(
                np.arange(r0, r1, dtype=np.int64) * n,
                np.diff(offsets[r0:r1 + 1]),
            )
            block += row_base
            block.sort()
            block -= row_base
            cols[lo:hi] = block
        return offsets, cols


#: Rows per block in :func:`row_blocks`: a few thousand pairs at
#: highway densities, so per-block temporaries stay a few tens of KB.
_BLOCK_ROWS = 256


def row_blocks(offsets: np.ndarray):
    """Yield ``(r0, r1, lo, hi)`` blocks of a CSR table's rows.

    Rows ``r0:r1`` own pairs ``lo:hi``.  Building and filtering a
    neighbour table block by block bounds its temporaries, so a slot's
    peak memory is the table itself.
    """
    n = len(offsets) - 1
    for r0 in range(0, n, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, n)
        yield r0, r1, int(offsets[r0]), int(offsets[r1])


# -- registry entries ---------------------------------------------------------
#
# Factories take the scenario and return either ``None`` (dense: the channel
# keeps its exact O(N^2) link cache) or an index object implementing
# ``rebuild(positions)`` / ``neighbor_table(nodes)``.  The cull radius defaults to
# the scenario's carrier-sense range — the maximum link range by construction
# (PhyParams.for_ranges derives the CS threshold from it) — so the default
# grid configuration is always in the bit-identical regime.


def cull_radius_for(scenario) -> float:
    """The effective cull radius of a scenario (explicit or CS-derived)."""
    if scenario.cull_radius_m is not None:
        return float(scenario.cull_radius_m)
    return float(scenario.cs_range_m)


def _make_dense(scenario) -> None:
    """Exact O(N^2) link cache — no culling (scenario knobs: none)."""
    return None


def _make_grid(scenario) -> UniformGridIndex:
    """Uniform-grid culling (knob: cull_radius_m, default cs_range_m)."""
    radius = cull_radius_for(scenario)
    if radius < scenario.cs_range_m:
        raise ConfigError(
            f"cull_radius_m={radius:g} is smaller than the maximum link "
            f"range (cs_range_m={scenario.cs_range_m:g}); culling inside "
            "carrier sense would silently drop detectable links"
        )
    return UniformGridIndex(cell_size_m=radius)
