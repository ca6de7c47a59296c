"""Multi-lane Nagel-Schreckenberg road with lane changing.

Paper Section III lists the number of lanes as the mobility parameter CAVENET
takes into account: relay vehicles on a parallel lane can bridge connectivity
gaps (Fig. 1-a) while opposite-lane traffic adds interference (Fig. 1-b).

Lane changes follow the symmetric two-stage scheme of Rickert, Nagel,
Schreckenberg and Latour (1996): in the first sub-step every vehicle that is
blocked on its own lane and sees both a safe and a more attractive adjacent
lane sideslips; in the second sub-step each lane advances with the ordinary
single-lane NaS rules.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.ca.vehicle import VehicleState
from repro.kernels import resolve_backend
from repro.util.errors import InvariantViolation
from repro.util.validate import check_positive, check_probability

#: Shared empty draw array for deterministic (p = 0) steps.
_NO_DRAWS = np.empty(0, dtype=np.float64)


class _LaneArrays:
    """Mutable per-lane vehicle arrays kept sorted by cell."""

    __slots__ = ("positions", "velocities", "ids", "wraps", "shifted")

    def __init__(self) -> None:
        self.positions = np.empty(0, dtype=np.int64)
        self.velocities = np.empty(0, dtype=np.int64)
        self.ids = np.empty(0, dtype=np.int64)
        self.wraps = np.empty(0, dtype=np.int64)
        self.shifted = np.empty(0, dtype=bool)


class MultiLaneRoad:
    """``num_lanes`` parallel cyclic lanes of ``num_cells`` cells each.

    Args:
        num_cells: length of every lane, in cells.
        num_lanes: number of parallel lanes (>= 1).
        vehicles_per_lane: initial vehicle count on each lane (evenly
            spaced).  Must have exactly ``num_lanes`` entries.
        p: NaS dawdling probability, shared by all lanes.
        v_max: maximum velocity, cells/step.
        p_change: probability that an advantageous, safe lane change is
            actually executed (1.0 = always change when allowed).
        safety_gap_back: free cells required behind the target cell on the
            destination lane; defaults to ``v_max`` (conservative — a
            follower at top speed cannot hit the merger).
        rng: generator for dawdling and lane-change draws.
        kernels: kernel backend (name or instance) executing the per-lane
            update loops; see :mod:`repro.kernels`.  Bit-identical across
            backends — dawdle draws are pre-drawn per lane in lane order.
    """

    def __init__(
        self,
        num_cells: int,
        num_lanes: int,
        vehicles_per_lane: Sequence[int],
        *,
        p: float = 0.0,
        v_max: int = 5,
        p_change: float = 1.0,
        safety_gap_back: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        kernels="auto",
    ) -> None:
        check_positive("num_cells", num_cells)
        check_probability("p", p)
        check_probability("p_change", p_change)
        if num_lanes < 1:
            raise ValueError(f"num_lanes must be >= 1, got {num_lanes}")
        if v_max < 1:
            raise ValueError(f"v_max must be >= 1, got {v_max}")
        if len(vehicles_per_lane) != num_lanes:
            raise ValueError(
                f"vehicles_per_lane has {len(vehicles_per_lane)} entries "
                f"for {num_lanes} lanes"
            )
        self._num_cells = int(num_cells)
        self._num_lanes = int(num_lanes)
        self._p = float(p)
        self._v_max = int(v_max)
        self._p_change = float(p_change)
        self._safety_gap_back = (
            int(safety_gap_back) if safety_gap_back is not None else int(v_max)
        )
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._kernels = resolve_backend(kernels)
        self._time = 0

        self._lanes: List[_LaneArrays] = [_LaneArrays() for _ in range(num_lanes)]
        next_id = 0
        for k, count in enumerate(vehicles_per_lane):
            if not 0 <= count <= num_cells:
                raise ValueError(
                    f"lane {k}: {count} vehicles do not fit on {num_cells} cells"
                )
            lane = self._lanes[k]
            lane.positions = np.floor(
                np.arange(count) * num_cells / max(count, 1)
            ).astype(np.int64)
            lane.velocities = np.zeros(count, dtype=np.int64)
            lane.ids = np.arange(next_id, next_id + count, dtype=np.int64)
            lane.wraps = np.zeros(count, dtype=np.int64)
            lane.shifted = np.zeros(count, dtype=bool)
            next_id += count

    # -- read-only state ---------------------------------------------------

    @property
    def num_cells(self) -> int:
        """Lane length L in cells."""
        return self._num_cells

    @property
    def num_lanes(self) -> int:
        """Number of parallel lanes."""
        return self._num_lanes

    @property
    def time(self) -> int:
        """Number of steps executed so far."""
        return self._time

    @property
    def num_vehicles(self) -> int:
        """Total vehicles across all lanes."""
        return sum(len(lane.positions) for lane in self._lanes)

    @property
    def density(self) -> float:
        """Overall density: vehicles per cell across all lanes."""
        return self.num_vehicles / (self._num_cells * self._num_lanes)

    def lane_positions(self, lane: int) -> np.ndarray:
        """Sorted cells occupied on ``lane`` (copy)."""
        return self._lanes[lane].positions.copy()

    def lane_velocities(self, lane: int) -> np.ndarray:
        """Velocities aligned with :meth:`lane_positions` (copy)."""
        return self._lanes[lane].velocities.copy()

    def lane_ids(self, lane: int) -> np.ndarray:
        """Stable vehicle ids aligned with :meth:`lane_positions` (copy)."""
        return self._lanes[lane].ids.copy()

    def lane_shifted(self, lane: int) -> np.ndarray:
        """Per-vehicle wrapped-last-step flags for ``lane`` (copy)."""
        return self._lanes[lane].shifted.copy()

    @property
    def kernels(self):
        """The kernel backend executing the per-lane update loops."""
        return self._kernels

    def mean_velocity(self) -> float:
        """Average velocity over every vehicle on the road."""
        velocities = np.concatenate([l.velocities for l in self._lanes])
        if len(velocities) == 0:
            return float("nan")
        return float(velocities.mean())

    def occupancy_matrix(self) -> np.ndarray:
        """A ``(num_lanes, L)`` matrix: velocity at occupied sites, -1 else."""
        matrix = np.full((self._num_lanes, self._num_cells), -1, dtype=np.int64)
        for k, lane in enumerate(self._lanes):
            matrix[k, lane.positions] = lane.velocities
        return matrix

    def vehicles(self) -> List[VehicleState]:
        """Flat list of per-vehicle records across all lanes."""
        result: List[VehicleState] = []
        for k, lane in enumerate(self._lanes):
            gaps = self._kernels.cyclic_gaps(lane.positions, self._num_cells)
            for i in range(len(lane.positions)):
                result.append(
                    VehicleState(
                        vehicle_id=int(lane.ids[i]),
                        cell=int(lane.positions[i]),
                        velocity=int(lane.velocities[i]),
                        gap=int(gaps[i]),
                        lane=k,
                        wraps=int(lane.wraps[i]),
                        shifted=bool(lane.shifted[i]),
                    )
                )
        return result

    # -- dynamics ----------------------------------------------------------

    def step(self) -> None:
        """One time step: lane-change sub-step, then NaS movement per lane.

        An always-on conservation guard brackets the step: every lane is
        cyclic, so lane changes and movement may shuffle vehicles between
        lanes but never create or destroy one.  A violation raises
        :class:`~repro.util.errors.InvariantViolation` with the step and
        per-lane counts — the signature of a lane-change commit bug.
        """
        before = self.num_vehicles
        if self._num_lanes > 1:
            self._lane_change_stage()
        self._movement_stage()
        after = self.num_vehicles
        if after != before:
            raise InvariantViolation(
                "vehicle count changed on a closed multi-lane road",
                step=self._time,
                before=before,
                after=after,
                per_lane=[len(lane.positions) for lane in self._lanes],
            )
        self._time += 1

    def run(self, steps: int) -> None:
        """Advance the road by ``steps`` steps."""
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        for _ in range(steps):
            self.step()

    # -- internals ---------------------------------------------------------

    def _lane_change_stage(self) -> None:
        # Decide every change against the *pre-step* configuration (parallel
        # update), then commit, resolving target-cell conflicts in lane order.
        moves = []  # (from_lane, index_in_lane, to_lane)
        claimed = set()  # (to_lane, cell) already granted this sub-step
        for k, lane in enumerate(self._lanes):
            if len(lane.positions) == 0:
                continue
            gaps_same = self._kernels.cyclic_gaps(
                lane.positions, self._num_cells
            )
            want = np.minimum(lane.velocities + 1, self._v_max)
            blocked = gaps_same < want
            if not blocked.any():
                continue
            candidates = np.nonzero(blocked)[0]
            draws = self._rng.random(len(candidates))
            for draw, i in zip(draws, candidates):
                if draw >= self._p_change:
                    continue
                cell = int(lane.positions[i])
                for to_lane in self._adjacent_lanes(k):
                    if (to_lane, cell) in claimed:
                        continue
                    if not self._change_allowed(
                        cell, int(gaps_same[i]), to_lane
                    ):
                        continue
                    moves.append((k, int(i), to_lane))
                    claimed.add((to_lane, cell))
                    break
        if moves:
            self._commit_moves(moves)

    def _adjacent_lanes(self, lane: int) -> List[int]:
        adjacent = []
        if lane + 1 < self._num_lanes:
            adjacent.append(lane + 1)
        if lane - 1 >= 0:
            adjacent.append(lane - 1)
        return adjacent

    def _change_allowed(self, cell: int, gap_same: int, to_lane: int) -> bool:
        target = self._lanes[to_lane]
        pos = target.positions
        if len(pos) == 0:
            return True
        idx = int(np.searchsorted(pos, cell))
        if idx < len(pos) and pos[idx] == cell:
            return False  # target cell occupied
        ahead = pos[idx % len(pos)]
        gap_other = (int(ahead) - cell - 1) % self._num_cells
        if gap_other <= gap_same:
            return False  # no incentive
        behind = pos[(idx - 1) % len(pos)]
        gap_back = (cell - int(behind) - 1) % self._num_cells
        return gap_back >= self._safety_gap_back

    def _commit_moves(self, moves: List) -> None:
        incoming = {k: [] for k in range(self._num_lanes)}
        outgoing = {k: [] for k in range(self._num_lanes)}
        for from_lane, index, to_lane in moves:
            outgoing[from_lane].append(index)
            lane = self._lanes[from_lane]
            incoming[to_lane].append(
                (
                    int(lane.positions[index]),
                    int(lane.velocities[index]),
                    int(lane.ids[index]),
                    int(lane.wraps[index]),
                    bool(lane.shifted[index]),
                )
            )
        for k in range(self._num_lanes):
            lane = self._lanes[k]
            if outgoing[k]:
                keep = np.ones(len(lane.positions), dtype=bool)
                keep[outgoing[k]] = False
                lane.positions = lane.positions[keep]
                lane.velocities = lane.velocities[keep]
                lane.ids = lane.ids[keep]
                lane.wraps = lane.wraps[keep]
                lane.shifted = lane.shifted[keep]
            if incoming[k]:
                add = np.array([m[0] for m in incoming[k]], dtype=np.int64)
                order = np.argsort(
                    np.concatenate([lane.positions, add]), kind="stable"
                )
                lane.positions = np.concatenate([lane.positions, add])[order]
                lane.velocities = np.concatenate(
                    [lane.velocities, [m[1] for m in incoming[k]]]
                )[order]
                lane.ids = np.concatenate(
                    [lane.ids, [m[2] for m in incoming[k]]]
                )[order]
                lane.wraps = np.concatenate(
                    [lane.wraps, [m[3] for m in incoming[k]]]
                )[order]
                lane.shifted = np.concatenate(
                    [lane.shifted, [m[4] for m in incoming[k]]]
                )[order]

    def _movement_stage(self) -> None:
        # Per-lane NaS update as one kernel call; sorted cyclic positions
        # are ring order, so the single-lane kernel applies unchanged.
        # Dawdle draws are pre-drawn per lane in lane order — the identical
        # RNG stream on every backend.
        for k, lane in enumerate(self._lanes):
            n = len(lane.positions)
            if n == 0:
                continue
            pos = lane.positions.copy()
            vel = lane.velocities.copy()
            gaps = np.empty(n, dtype=np.int64)
            wrapped = np.empty(n, dtype=bool)
            use_draws = self._p > 0.0
            draws = self._rng.random(n) if use_draws else _NO_DRAWS
            bad = self._kernels.nasch_step(
                pos, vel, gaps, wrapped, draws, use_draws,
                self._p, self._v_max, self._num_cells,
            )
            # Guard: gap positivity per lane (same check as the single-lane
            # model) — a stale gap after a bad lane-change commit would
            # surface here, before vehicles can collide.
            if bad >= 0:
                raise InvariantViolation(
                    "vehicle would outrun its gap",
                    step=self._time,
                    lane=k,
                    vehicle_id=int(lane.ids[bad]),
                    cell=int(lane.positions[bad]),
                    velocity=int(vel[bad]),
                    gap=int(gaps[bad]),
                )
            lane.positions = pos
            lane.velocities = vel
            lane.wraps = lane.wraps + wrapped
            lane.shifted = wrapped
            if wrapped.any():
                # Keep the per-lane arrays sorted by cell: wrapping vehicles
                # (one contiguous tail block) rotate to the front.
                order = np.argsort(lane.positions, kind="stable")
                lane.positions = lane.positions[order]
                lane.velocities = lane.velocities[order]
                lane.ids = lane.ids[order]
                lane.wraps = lane.wraps[order]
                lane.shifted = lane.shifted[order]
