"""Link-table tests: the per-slot table against its definitions.

The channel builds one link table per position slot and every sender's
row is a slice of it.  These tests hold the table to three references:
the brute-force definition of a row (every registered radio on dense,
those in the sender's 3 x 3 cell neighbourhood on the grid, in
registration order) with per-link reference loops for its distances,
powers and carrier-sense filter, the dense path, and the scalar
``fast_path=False`` loop.  The channel counters must keep their per-row
meaning, a degradation burst must never rebuild the pairs, and
stochastic propagation on the grid must draw exactly what it drew
before the table existed.  The per-link reference checks live in
``helpers`` so the kernel suite runs them over each backend's
trajectory too.
"""

import numpy as np
import pytest

from helpers import (
    REF_CELL,
    assert_rows_match_reference,
    assert_table_matches_reference,
    reference_channel,
)
from repro.core import registry
from repro.core.config import Scenario
from repro.core.simulation import CavenetSimulation
from repro.des.engine import Simulator
from repro.mac.frames import Frame, FrameType
from repro.net.address import BROADCAST
from repro.net.packet import Packet
from repro.phy.channel import Channel
from repro.phy.effects import Obstacle, ObstacleShadowing
from repro.phy.params import PhyParams
from repro.phy.radio import Radio
from repro.phy.spatial import UniformGridIndex
from repro.util.rng import RngStreams

CELL = 550.0
SLOT_S = 0.5
NUM_SLOTS = 4
#: Trace nodes; the last one has no radio.
NUM_NODES = 41
#: A degradation burst inside slots 1 and 2 (no frame starts on an edge).
BURST_EDGES = (0.61, 1.27)


def _positions(seed=7):
    """Per-slot position matrices: negative coordinates, and every
    fifth node snapped exactly onto a cell edge."""
    rng = np.random.default_rng(seed)
    slots = []
    for _ in range(NUM_SLOTS):
        pos = rng.uniform(-1300.0, 1300.0, size=(NUM_NODES, 2))
        pos[::5] = np.round(pos[::5] / CELL) * CELL
        slots.append(pos)
    return slots


def _registration_order(seed=7):
    """Radio node ids in shuffled registration order (last node left out)."""
    return np.random.default_rng(seed + 1).permutation(NUM_NODES - 1).tolist()


def _brute_row(positions, reg_ids, sender):
    """Registration indices in ``sender``'s 3 x 3 cell neighbourhood."""
    cells = np.floor(positions / CELL)
    near = np.all(np.abs(cells[reg_ids] - cells[sender]) <= 1, axis=1)
    return np.flatnonzero(near).tolist()


def _deterministic_models():
    """Every registered propagation model that can be deterministic
    (shadowing with sigma = 0 is)."""
    scenario = Scenario(shadowing_sigma_db=0.0)
    models = {}
    for name in registry.known("propagation"):
        model = registry.resolve("propagation", name)(
            scenario, RngStreams(1)
        )
        if model.deterministic:
            models[name] = model
    return models


MODELS = _deterministic_models()


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


def _run(mode, model, prop_delay=True, per_radio_power=False, effects=(),
         burst=False, spatial=None):
    """Scripted broadcasts over four position slots.

    ``mode`` is ``"dense"``, ``"grid"`` or ``"scalar"``.  Returns the
    channel, per-radio event logs and the (time, sender) schedule.
    """
    slots = _positions()
    sim = Simulator()
    if mode == "grid" and spatial is None:
        spatial = UniformGridIndex(CELL)
    channel = Channel(
        sim, model, lambda: slots[min(int(sim.now / SLOT_S), NUM_SLOTS - 1)],
        propagation_delay=prop_delay, fast_path=mode != "scalar",
        spatial=spatial if mode == "grid" else None, effects=effects,
    )
    # CS range = cell size, so the grid is exact for every model; lower
    # transmit powers only shrink a sender's reach.
    params = PhyParams.for_ranges(model, 250.0, CELL)
    low = PhyParams(
        tx_power_w=params.tx_power_w * 0.25,
        rx_threshold_w=params.rx_threshold_w,
        cs_threshold_w=params.cs_threshold_w,
        capture_ratio=params.capture_ratio,
    )
    order = _registration_order()
    logs = {}
    for k, node_id in enumerate(order):
        radio_params = low if per_radio_power and k % 3 == 0 else params
        radio = Radio(sim, node_id, radio_params, channel)
        logs[node_id] = _Log(sim)
        radio.attach_mac(logs[node_id])
    schedule = []
    for k in range(5 * len(order)):
        sender = order[(7 * k) % len(order)]
        t = 0.0095 * k
        schedule.append((t, sender))
        sim.schedule(t, channel.transmit, sender, _frame(sender, k), 0.001)
    if burst:
        sim.schedule_at(BURST_EDGES[0], channel.set_attenuation, 0.3)
        sim.schedule_at(BURST_EDGES[1], channel.set_attenuation, 1.0)
    sim.run()
    return channel, [logs[n].events for n in sorted(logs)], schedule


def _obstacle():
    square = Obstacle(
        [[-200.0, -200.0], [150.0, -200.0], [150.0, 150.0], [-200.0, 150.0]]
    )
    return (ObstacleShadowing([square], extra_loss_db=25.0),)


# -- the table against the brute-force row definition ------------------------


@pytest.mark.parametrize("seed", range(4))
def test_neighbor_table_rows_match_brute_force(seed):
    """Row i lists every registered node in the 3 x 3 neighbourhood of
    nodes[i], itself included, as ascending registration indices."""
    positions = _positions(seed)[0]
    reg_ids = np.array(_registration_order(seed))
    index = UniformGridIndex(CELL)
    index.rebuild(positions)
    offsets, cols = index.neighbor_table(reg_ids)
    assert offsets[0] == 0 and offsets[-1] == len(cols)
    for i, sender in enumerate(reg_ids.tolist()):
        row = cols[offsets[i]:offsets[i + 1]].tolist()
        assert row == _brute_row(positions, reg_ids, sender)
        assert i in row


def test_neighbor_table_of_no_nodes_is_empty():
    index = UniformGridIndex(CELL)
    index.rebuild(np.zeros((3, 2)))
    offsets, cols = index.neighbor_table(np.array([], dtype=np.intp))
    assert offsets.tolist() == [0] and len(cols) == 0


# -- grid == dense == scalar, counters by their per-row definitions ----------


@pytest.mark.parametrize("effects", [(), _obstacle()], ids=["bare", "obstacle"])
@pytest.mark.parametrize("per_radio_power", [False, True],
                         ids=["uniform-tx", "per-radio-tx"])
@pytest.mark.parametrize("prop_delay", [True, False],
                         ids=["delay", "no-delay"])
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_grid_event_stream_identical_to_dense_and_scalar(
    model_name, prop_delay, per_radio_power, effects
):
    model = MODELS[model_name]
    kwargs = dict(prop_delay=prop_delay, per_radio_power=per_radio_power,
                  effects=effects, burst=True)
    grid, logs_g, schedule = _run("grid", model, **kwargs)
    dense, logs_d, _ = _run("dense", model, **kwargs)
    scalar, logs_s, _ = _run("scalar", model, **kwargs)
    assert logs_g == logs_d == logs_s
    assert sum(len(log) for log in logs_g) > 0
    for counter in ("frames_transmitted", "frames_delivered",
                    "frames_cs_dropped"):
        assert (getattr(grid, counter) == getattr(dense, counter)
                == getattr(scalar, counter)), counter

    # Per-row definitions: one lookup per frame, one rebuild per slot,
    # and each sender's first frame in a slot — or after an attenuation
    # change, which drops deterministic rows — evaluates its whole row.
    slots = _positions()
    reg_ids = np.array(_registration_order())
    first_frames = {
        (int(t / SLOT_S), sum(t > edge for edge in BURST_EDGES), sender)
        for t, sender in schedule
    }
    assert grid.cache_lookups == dense.cache_lookups == len(schedule)
    assert grid.cache_rebuilds == dense.cache_rebuilds == len(
        {slot for slot, _, _ in first_frames}
    )
    assert dense.links_evaluated == len(first_frames) * len(reg_ids)
    assert grid.links_evaluated == sum(
        len(_brute_row(slots[slot], reg_ids, sender))
        for slot, _, sender in first_frames
    )
    assert grid.links_evaluated < dense.links_evaluated


@pytest.mark.parametrize("mode", ["grid", "dense"])
def test_attenuation_burst_never_rebuilds_the_pairs(mode, monkeypatch):
    """A mid-slot set_attenuation redoes only the eager table's filter:
    the table is built once per slot (its pairs once per registration
    change on dense), and the burst still matches the scalar loop."""
    model = MODELS["two_ray"]
    pairs = []
    original = Channel._build_table

    def counting(self, positions):
        original(self, positions)
        pairs.append(self._tbl_cols)

    monkeypatch.setattr(Channel, "_build_table", counting)
    channel, logs, _ = _run(mode, model, burst=True)
    monkeypatch.undo()
    _, logs_quiet, _ = _run(mode, model)
    _, logs_s, _ = _run("scalar", model, burst=True)
    assert logs == logs_s
    assert logs != logs_quiet  # the burst really changed deliveries
    assert len(pairs) == channel.cache_rebuilds == NUM_SLOTS
    distinct = len({id(cols) for cols in pairs})
    assert distinct == (NUM_SLOTS if mode == "grid" else 1)
    assert channel._tbl_powers is not None  # the eager table was in play


# -- rows against per-link reference loops ------------------------------------


def _random_inputs(seed):
    """Random positions (negative coordinates, some on cell edges) and a
    shuffled strict subset of their nodes, in registration order."""
    rng = np.random.default_rng(seed)
    num_positions = 50
    positions = rng.uniform(-800.0, 800.0, size=(num_positions, 2))
    positions[::6] = np.round(positions[::6] / REF_CELL) * REF_CELL
    ids = rng.permutation(num_positions)[: rng.integers(1, num_positions)]
    return positions, ids


REFERENCE_CASES = pytest.mark.parametrize(
    "spatial, tx_power",
    [(s, t) for s in ("grid", "dense") for t in ("uniform", "mixed")],
    ids=lambda value: value,
)


@pytest.mark.parametrize("seed", range(5))
@REFERENCE_CASES
def test_row_select_matches_reference(spatial, tx_power, seed):
    positions, ids = _random_inputs(seed)
    channel = reference_channel(positions, ids, spatial, tx_power)
    assert_rows_match_reference(positions, ids, channel, spatial)


@pytest.mark.parametrize("seed", range(5))
@REFERENCE_CASES
def test_row_distances_and_filter_match_reference(spatial, tx_power, seed):
    positions, ids = _random_inputs(100 + seed)
    channel = reference_channel(positions, ids, spatial, tx_power)
    assert_table_matches_reference(
        positions, ids, channel, tx_power, np.random.default_rng(100 + seed)
    )


# -- stochastic propagation on the grid: the same draws as before ------------

#: A Nakagami run on the grid where culling changes the draws (the dense
#: run differs), pinned from the per-frame row builds the table replaced:
#: (pdr, originated, delivered, frames on air, mean delay, control
#: packets) and (deliveries, CS drops, events).
NAKAGAMI_GRID = (
    (0.99375, 320, 318, 3874, 0.047826902177387796, 1463),
    (38768, 267278, 98970),
)


@pytest.mark.parametrize("kernels", ["python", "auto"])
def test_nakagami_grid_draws_unchanged(kernels):
    result = CavenetSimulation(Scenario(
        num_nodes=80, road_length_m=8000.0, spatial="grid",
        propagation="nakagami", sim_time_s=10.0, traffic_start_s=1.0,
        traffic_stop_s=9.0, kernels=kernels,
    )).run()
    channel = result.collector.channel
    observed = (
        (result.pdr(), result.collector.num_originated,
         result.collector.num_delivered, result.frames_on_air,
         result.delay_stats().mean_s, result.control_overhead().packets),
        (channel.frames_delivered, channel.frames_cs_dropped,
         channel.events_processed),
    )
    assert observed == NAKAGAMI_GRID
