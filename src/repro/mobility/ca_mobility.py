"""Adapter from cell-space CA dynamics to plane-space mobility traces.

This is the glue between the microscopic model (Section III-A), the vehicle
structures (III-C) and the lane construction (III-D): each CA step advances
every vehicle by whole cells; the lane shape's arc-length parametrisation
maps the (possibly fractional) cell index to plane coordinates.

The boundary condition decides what a wrap means geometrically:

* ``Boundary.PERIODIC`` on a closed shape (circle): the wrap is continuous —
  the improved CAVENET.
* ``Boundary.WRAP_SHIFT`` on an open shape (straight line): the wrap is a
  teleport, flagged in the trace so that consumers do not interpolate a
  physically impossible dash across the plane — the original CAVENET whose
  broken head/tail connectivity motivated the improvement.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

import numpy as np

from repro.ca.boundary import Boundary
from repro.ca.nasch import NagelSchreckenberg
from repro.geometry.layout import RoadLayout
from repro.mobility.base import MobilityModel
from repro.mobility.trace import MobilityTrace
from repro.util.units import TIME_STEP_S

if TYPE_CHECKING:  # a single-lane run never loads the multi-lane CA
    from repro.ca.multilane import MultiLaneRoad


class CaMobility(MobilityModel):
    """Drive a single- or multi-lane NaS automaton and emit plane traces.

    Args:
        model: the automaton to advance.  For a :class:`MultiLaneRoad`, the
            layout must have at least as many lanes as the road.
        layout: lane geometry.  Lane ``k`` of the automaton maps through
            ``layout.lane(k)``.
        time_step_s: seconds of real time per CA step (paper: 1 s).
    """

    def __init__(
        self,
        model: Union[NagelSchreckenberg, MultiLaneRoad],
        layout: RoadLayout,
        time_step_s: float = TIME_STEP_S,
    ) -> None:
        if time_step_s <= 0:
            raise ValueError(f"time_step_s must be > 0, got {time_step_s}")
        self._model = model
        self._layout = layout
        self._dt = float(time_step_s)
        # The automaton is a NagelSchreckenberg (one lane) or else a
        # MultiLaneRoad.
        self._multilane = not isinstance(model, NagelSchreckenberg)
        num_lanes = model.num_lanes if self._multilane else 1
        if layout.num_lanes < num_lanes:
            raise ValueError(
                f"layout has {layout.num_lanes} lanes but the automaton "
                f"needs {num_lanes}"
            )
        for lane_id in layout.lane_ids[:num_lanes]:
            lane = layout.lane(lane_id)
            if lane.num_cells < model.num_cells:
                raise ValueError(
                    f"lane {lane_id} fits only {lane.num_cells} cells; the "
                    f"automaton has {model.num_cells}"
                )
        # Node index <-> vehicle id: vehicles are numbered 0..N-1 at
        # construction, and the population is fixed for the boundaries this
        # adapter supports, so ids are stable node indices.
        if not self._multilane and model.boundary is Boundary.OPEN:
            raise ValueError(
                "OPEN boundaries change the vehicle population; network "
                "nodes need a fixed population — use PERIODIC or WRAP_SHIFT"
            )
        self._num_nodes = model.num_vehicles

    @property
    def num_nodes(self) -> int:
        """Number of vehicles (= network nodes)."""
        return self._num_nodes

    @property
    def model(self) -> Union[NagelSchreckenberg, MultiLaneRoad]:
        """The underlying automaton (advanced in place by :meth:`sample`)."""
        return self._model

    @property
    def layout(self) -> RoadLayout:
        """The lane geometry."""
        return self._layout

    def _lane_arrays(self):
        """Yield ``(lane_index, cells, vehicle_ids)`` per lane.

        Reads the automaton's arrays directly instead of materialising
        :class:`VehicleState` records (which costs a ``gaps()``
        recomputation plus one object per vehicle per call — measurable
        on the per-step sampling path).
        """
        model = self._model
        if self._multilane:
            for k in range(model.num_lanes):
                yield k, model.lane_positions(k), model.lane_ids(k)
        else:
            yield model.lane, model.positions, model.vehicle_ids

    def current_positions(self) -> np.ndarray:
        """Plane positions of all nodes right now, shape ``(N, 2)``.

        ``cell_to_plane`` stays a per-vehicle scalar call: the arc-length
        parametrisation must evaluate with exactly the same float
        operations as always so recorded traces are bit-stable.
        """
        positions = np.empty((self._num_nodes, 2))
        for lane_idx, cells, ids in self._lane_arrays():
            lane = self._layout.lane(lane_idx)
            for cell, vehicle_id in zip(cells.tolist(), ids.tolist()):
                positions[vehicle_id] = lane.cell_to_plane(cell)
        return positions

    def sample(self, duration_s: float, interval_s: float = 1.0) -> MobilityTrace:
        """Advance the automaton and record plane positions.

        ``interval_s`` must be a whole multiple of the CA time step: the
        automaton is inherently discrete and cannot be sampled mid-step.
        """
        if duration_s < 0:
            raise ValueError(f"duration_s must be >= 0, got {duration_s}")
        steps_per_sample = interval_s / self._dt
        if abs(steps_per_sample - round(steps_per_sample)) > 1e-9:
            raise ValueError(
                f"interval_s ({interval_s}) must be a multiple of the CA "
                f"time step ({self._dt})"
            )
        steps_per_sample = int(round(steps_per_sample))
        if steps_per_sample < 1:
            raise ValueError("interval_s must be at least one CA time step")
        num_samples = int(duration_s // interval_s) + 1
        start_time = self._model.time * self._dt

        times = start_time + interval_s * np.arange(num_samples)
        positions = np.empty((num_samples, self._num_nodes, 2))
        teleported = np.zeros((num_samples, self._num_nodes), dtype=bool)
        positions[0] = self.current_positions()
        teleports_possible = self._any_open_lane()
        for row in range(1, num_samples):
            shifted_since_last = np.zeros(self._num_nodes, dtype=bool)
            for _ in range(steps_per_sample):
                self._model.step()
                # Only open lanes can teleport; when every lane is
                # closed the scan would never set a flag, so skip it.
                if teleports_possible:
                    self._accumulate_shifts(shifted_since_last)
            positions[row] = self.current_positions()
            teleported[row] = shifted_since_last
        return MobilityTrace(
            times=times,
            positions=positions,
            teleported=teleported if teleports_possible else None,
        )

    def _accumulate_shifts(self, shifted_since_last: np.ndarray) -> None:
        """OR this step's wrap flags (open lanes only) into the row."""
        model = self._model
        if self._multilane:
            for k in range(model.num_lanes):
                if self._lane_closed(k):
                    continue
                shifted = model.lane_shifted(k)
                if shifted.any():
                    shifted_since_last[model.lane_ids(k)[shifted]] = True
        elif not self._lane_closed(model.lane):
            shifted = model.shifted
            if shifted.any():
                shifted_since_last[model.vehicle_ids[shifted]] = True

    def _lane_closed(self, lane_id: int) -> bool:
        return self._layout.lane(lane_id).shape.closed

    def _any_open_lane(self) -> bool:
        return any(not lane.shape.closed for lane in self._layout)
