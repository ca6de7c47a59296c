"""Registry entries for lane topology and initial vehicle placement.

These factories are the pluggable half of the Behavioural Analyzer:
``boundary`` entries build the lane geometry (plus the matching CA
boundary condition) and ``mobility`` entries place the vehicles and build
the Nagel-Schreckenberg model.  ``CavenetSimulation.build_mobility``
resolves both through :mod:`repro.core.registry`, so a new road shape or
placement strategy plugs in with a decorator instead of an if/elif edit.

Contracts:

* ``boundary`` — ``factory(scenario) -> (RoadLayout, Boundary)``;
* ``mobility`` — ``factory(scenario, boundary, rng) ->
  NagelSchreckenberg`` (``rng`` is the run's ``"mobility"`` stream; draw
  from it exactly as documented so same-seed runs stay reproducible).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.ca.boundary import Boundary
from repro.ca.nasch import NagelSchreckenberg
from repro.geometry.layout import RoadLayout


def _make_circuit(scenario) -> Tuple[RoadLayout, Boundary]:
    """Improved CAVENET: the lane closed into a circle (paper Fig. 1b)."""
    layout = RoadLayout.single_circuit(
        scenario.road_length_m, scenario.cell_length_m
    )
    return layout, Boundary.PERIODIC


def _make_line(scenario) -> Tuple[RoadLayout, Boundary]:
    """Original CAVENET: a straight lane with the wrap-shift teleport."""
    layout = RoadLayout.single_line(
        scenario.road_length_m, scenario.cell_length_m
    )
    return layout, Boundary.WRAP_SHIFT


def _place_random(
    scenario, boundary: Boundary, rng: np.random.Generator
) -> NagelSchreckenberg:
    """Uniform-random scatter over the lane (heterogeneous gaps, the
    intermittent-connectivity regime of the paper's evaluation).

    Draws one ``rng.choice`` of ``num_nodes`` distinct cells, sorted —
    the exact draw the pre-registry dispatch made, so seeded traces are
    unchanged.
    """
    positions = np.sort(
        rng.choice(scenario.num_cells, size=scenario.num_nodes, replace=False)
    )
    return NagelSchreckenberg(
        scenario.num_cells,
        positions=positions,
        p=scenario.dawdle_p,
        v_max=scenario.v_max,
        boundary=boundary,
        rng=rng,
        kernels=scenario.kernels,
    )


def _place_uniform(
    scenario, boundary: Boundary, rng: np.random.Generator
) -> NagelSchreckenberg:
    """Evenly spaced vehicles (a fully connected static ring; no draws)."""
    return NagelSchreckenberg(
        scenario.num_cells,
        scenario.num_nodes,
        p=scenario.dawdle_p,
        v_max=scenario.v_max,
        boundary=boundary,
        rng=rng,
        kernels=scenario.kernels,
    )
