"""Spatial-index tests: grid mechanics, edge cases, grid-vs-dense identity.

The uniform grid must (a) never lose a node — cell-boundary positions,
negative coordinates and empty neighbor cells included — and (b) leave
the simulation's physics untouched: with deterministic propagation and a
cull radius covering the maximum link range, a grid run is bit-identical
to the dense run, down to the PR 4 golden numbers of the default
Table I scenario.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import registry
from repro.core.config import Scenario
from repro.core.simulation import CavenetSimulation
from repro.des.engine import Simulator
from repro.mac.frames import Frame, FrameType
from repro.net.address import BROADCAST
from repro.net.packet import Packet
from repro.phy.channel import Channel
from repro.phy.params import PhyParams
from repro.phy.propagation import TwoRayGround
from repro.phy.radio import Radio
from repro.phy.spatial import UniformGridIndex, cull_radius_for
from repro.util.errors import ConfigError

from test_regression_defaults import GOLDEN


# -- grid mechanics -----------------------------------------------------------


def test_cell_boundary_nodes_are_candidates():
    """Nodes exactly on cell boundaries (x = k * cell) stay reachable."""
    cell = 550.0
    positions = np.array(
        [
            [0.0, 0.0],  # sender, on the (0,0)/(−1,0) boundary corner
            [cell, 0.0],  # exactly one cell size away -> neighbor cell
            [-cell, -cell],  # boundary corner in the negative quadrant
            [2 * cell, 0.0],  # two cells away: outside the 3x3 scan
        ]
    )
    index = UniformGridIndex(cell_size_m=cell)
    index.rebuild(positions)
    cand = set(index.candidates(0).tolist())
    assert {0, 1, 2} <= cand
    assert 3 not in cand


def test_all_in_radius_nodes_always_candidates():
    """Randomized containment: the 3x3 scan is a superset of the ball."""
    rng = np.random.default_rng(3)
    cell = 100.0
    positions = rng.uniform(-1000.0, 1000.0, size=(200, 2))
    # Mix in exact-boundary coordinates (multiples of the cell size).
    positions[::7] = np.round(positions[::7] / cell) * cell
    index = UniformGridIndex(cell_size_m=cell)
    index.rebuild(positions)
    for node in range(len(positions)):
        cand = set(index.candidates(node).tolist())
        dist = np.hypot(*(positions - positions[node]).T)
        in_radius = set(np.nonzero(dist <= cell)[0].tolist())
        assert in_radius <= cand, f"node {node} lost an in-radius neighbor"


def test_empty_neighbor_cells_are_skipped():
    """Isolated nodes see only themselves; nothing trips on empty cells."""
    positions = np.array([[0.0, 0.0], [10_000.0, 10_000.0]])
    index = UniformGridIndex(cell_size_m=550.0)
    index.rebuild(positions)
    assert index.candidates(0).tolist() == [0]
    assert index.candidates(1).tolist() == [1]
    assert index.num_occupied_cells == 2
    assert index.mean_occupancy == 1.0


def test_query_before_rebuild_raises():
    index = UniformGridIndex(cell_size_m=550.0)
    with pytest.raises(ConfigError, match="rebuild"):
        index.candidates(0)


def test_nonpositive_cell_size_rejected():
    with pytest.raises(ConfigError, match="> 0"):
        UniformGridIndex(cell_size_m=0.0)


# -- scenario field -----------------------------------------------------------


def test_cull_radius_smaller_than_link_range_rejected():
    """Culling inside carrier sense would drop detectable links."""
    with pytest.raises(ConfigError, match="maximum link range"):
        Scenario(spatial="grid", cull_radius_m=200.0)


def test_nonpositive_cull_radius_rejected():
    with pytest.raises(ConfigError, match="> 0"):
        Scenario(spatial="grid", cull_radius_m=-5.0)


def test_spatial_name_normalized_and_unknown_rejected():
    assert Scenario(spatial="GRID").spatial == "grid"
    assert Scenario().spatial == "dense"
    with pytest.raises(ConfigError, match="unknown spatial index"):
        Scenario(spatial="octree")


def test_grid_factory_derives_cell_size_from_cs_range():
    scenario = Scenario(spatial="grid")
    assert cull_radius_for(scenario) == scenario.cs_range_m
    index = registry.resolve("spatial", "grid")(scenario)
    assert isinstance(index, UniformGridIndex)
    assert index.cell_size_m == scenario.cs_range_m
    wider = registry.resolve("spatial", "grid")(
        dataclasses.replace(scenario, cull_radius_m=800.0)
    )
    assert wider.cell_size_m == 800.0
    assert registry.resolve("spatial", "dense")(scenario) is None


def test_spatial_fields_roundtrip():
    s = Scenario(spatial="grid", cull_radius_m=600.0)
    d = s.to_dict()
    assert d["spatial"] == "grid" and d["cull_radius_m"] == 600.0
    assert Scenario.from_dict(d) == s
    assert s.with_overrides({"spatial": "dense"}).spatial == "dense"


# -- grid-vs-dense channel equivalence ----------------------------------------


def _frame(tx, seq):
    packet = Packet("DATA", tx, BROADCAST, 100, 0.0)
    return Frame(FrameType.DATA, tx, BROADCAST, 128, packet=packet, seq=seq)


class _Log:
    def __init__(self, sim):
        self._sim = sim
        self.events = []

    def on_medium_busy(self):
        self.events.append(("busy", self._sim.now))

    def on_medium_idle(self):
        self.events.append(("idle", self._sim.now))

    def on_frame_received(self, frame, rx_power_w):
        self.events.append(("rx", self._sim.now, frame.tx_addr, rx_power_w))

    def on_tx_done(self):
        pass


def _run_channel(spatial, positions_list, attenuate_at=None, mixed=False):
    """Drive scripted broadcasts over static boundary-heavy positions;
    ``mixed`` halves every odd node's transmit power, so rows finish per
    sender instead of from the eager table."""
    positions = np.array(positions_list, dtype=float)
    sim = Simulator()
    channel = Channel(sim, TwoRayGround(), lambda: positions, spatial=spatial)
    params = PhyParams.for_ranges(TwoRayGround(), 250.0, 550.0)
    logs = []
    quiet = dataclasses.replace(params, tx_power_w=params.tx_power_w / 2)
    for node_id in range(len(positions)):
        radio = Radio(
            sim, node_id, quiet if mixed and node_id % 2 else params,
            channel,
        )
        log = _Log(sim)
        radio.attach_mac(log)
        logs.append(log)
    seq = 0
    for k in range(3 * len(positions)):
        sender = k % len(positions)
        seq += 1
        sim.schedule(
            0.01 * k, channel.transmit, sender, _frame(sender, seq), 0.001
        )
    if attenuate_at is not None:
        sim.schedule_at(attenuate_at, channel.set_attenuation, 0.1)
    sim.run()
    return channel, [log.events for log in logs]


#: Positions engineered onto cell boundaries of a 550 m grid, spanning
#: negative coordinates, with one pair exactly at the 550 m CS range.
_BOUNDARY_POSITIONS = [
    [0.0, 0.0],
    [550.0, 0.0],
    [0.0, 550.0],
    [-550.0, -550.0],
    [1100.0, 0.0],
    [275.0, 275.0],
    [825.0, 550.0],
]


@pytest.mark.parametrize("tx_power", ["uniform", "mixed"])
def test_grid_event_stream_identical_to_dense_on_boundaries(tx_power):
    """Grid-vs-dense identity must hold with nodes on cell boundaries
    and one pair exactly at the CS range, from the eager table (one
    transmit power) and from rows finished per sender (two)."""
    mixed = tx_power == "mixed"
    channel_d, logs_d = _run_channel(None, _BOUNDARY_POSITIONS, mixed=mixed)
    channel_g, logs_g = _run_channel(
        UniformGridIndex(550.0), _BOUNDARY_POSITIONS, mixed=mixed
    )
    assert logs_d == logs_g
    assert channel_d.frames_delivered == channel_g.frames_delivered
    assert channel_d.frames_cs_dropped == channel_g.frames_cs_dropped
    # Culling must actually have culled something to be a meaningful test.
    assert channel_g.links_evaluated < channel_d.links_evaluated


def test_grid_identical_to_dense_through_attenuation_burst():
    """A mid-run set_attenuation invalidates rows, never grid buckets."""
    index = UniformGridIndex(550.0)
    channel_d, logs_d = _run_channel(None, _BOUNDARY_POSITIONS, 0.1)
    channel_g, logs_g = _run_channel(index, _BOUNDARY_POSITIONS, 0.1)
    assert logs_d == logs_g
    assert channel_d.frames_delivered == channel_g.frames_delivered
    # Static positions: exactly one bucket rebuild despite the burst.
    assert channel_g.cache_rebuilds == 1


# -- end-to-end bit-identity (the PR 4 goldens, grid path) --------------------


@pytest.mark.parametrize("kernels", ["python", "auto"])
def test_grid_matches_pr4_golden_on_default_scenario(kernels):
    """The default 30-node Table I scenario under spatial="grid" must
    reproduce the dense golden numbers bit-for-bit (deterministic
    two-ray propagation, cull radius = CS range = max link range) —
    under the reference kernels and the best compiled backend alike."""
    result = CavenetSimulation(
        Scenario(spatial="grid", kernels=kernels)
    ).run()
    observed = (
        result.pdr(),
        result.collector.num_originated,
        result.collector.num_delivered,
        result.frames_on_air,
        result.delay_stats().mean_s,
        result.control_overhead().packets,
    )
    assert observed == GOLDEN["AODV"]
