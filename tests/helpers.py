"""Test harness utilities: static-topology networks for protocol tests.

Routing and MAC behaviour is easiest to verify on hand-placed, motionless
topologies (a chain, a star, a partitioned pair).  ``build_network`` wires
the full stack — DES, channel, radios, MACs, nodes, routing — over fixed
positions.  ``reference_channel`` and the ``assert_*_match_reference``
checks hold a channel's link table to per-link reference loops over any
positions.  ``make_queue``/``queue_task`` build a claim-file job queue
by hand for the queue-protocol and ``repro worker`` tests.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.distq import DirQueue
from repro.des.engine import Simulator
from repro.mac.frames import Frame, FrameType
from repro.mac.params import Mac80211Params
from repro.metrics.collector import MetricsCollector
from repro.net.address import BROADCAST
from repro.net.node import Node
from repro.net.packet import Packet
from repro.phy.channel import Channel
from repro.phy.params import PhyParams
from repro.phy.propagation import SPEED_OF_LIGHT, TwoRayGround
from repro.phy.radio import Radio
from repro.phy.spatial import UniformGridIndex
from repro.routing import make_protocol
from repro.util.rng import RngStreams


class StaticPositions:
    """A position provider over fixed coordinates."""

    def __init__(self, coords: Sequence[Tuple[float, float]]) -> None:
        self._coords = np.asarray(coords, dtype=float)

    def positions(self) -> np.ndarray:
        return self._coords

    def move(self, node: int, x: float, y: float) -> None:
        """Teleport a node (for link-break tests).

        Copy-on-move: the channel's link cache detects changed positions by
        array identity, so mutation must produce a fresh array object.
        """
        self._coords = self._coords.copy()
        self._coords[node] = (x, y)


class TestNetwork:
    """A fully wired static network plus its bookkeeping."""

    __test__ = False  # not a pytest collection target

    def __init__(
        self,
        coords: Sequence[Tuple[float, float]],
        protocol: Optional[str] = None,
        seed: int = 7,
        mac_params: Optional[Mac80211Params] = None,
        protocol_options: Optional[dict] = None,
    ) -> None:
        self.sim = Simulator()
        self.positions = StaticPositions(coords)
        self.streams = RngStreams(seed)
        propagation = TwoRayGround()
        self.phy_params = PhyParams.for_ranges(propagation, 250.0, 550.0)
        self.channel = Channel(self.sim, propagation, self.positions.positions)
        self.metrics = MetricsCollector(self.sim)
        self.mac_params = mac_params if mac_params is not None else Mac80211Params()
        self.nodes: List[Node] = []
        for node_id in range(len(coords)):
            node = Node(
                self.sim,
                node_id,
                self.channel,
                self.phy_params,
                self.mac_params,
                self.metrics,
                rng=self.streams.stream(f"mac-{node_id}"),
            )
            if protocol is not None:
                agent = make_protocol(
                    protocol,
                    node,
                    self.streams.stream(f"routing-{node_id}"),
                    **(protocol_options or {}),
                )
                node.set_routing(agent)
            self.nodes.append(node)

    def start_routing(self) -> None:
        for node in self.nodes:
            if node.routing is not None:
                node.routing.start()

    def run(self, until: float) -> None:
        self.sim.run(until=until)

    def delivered_uids(self) -> set:
        return {e.uid for e in self.metrics.delivered}


def chain_coords(n: int, spacing: float = 200.0) -> List[Tuple[float, float]]:
    """``n`` nodes in a line, ``spacing`` metres apart (multi-hop at 250 m)."""
    return [(i * spacing, 0.0) for i in range(n)]


# -- link rows against per-link reference loops ------------------------------

#: Cell size (and CS range) of the reference-loop channels.
REF_CELL = 250.0


def _reference_distances(positions, sel_ids, sender):
    """One scalar ``np.hypot`` per link: the per-link reference."""
    out = np.empty(len(sel_ids))
    for i, node in enumerate(sel_ids.tolist()):
        delta = positions[node] - positions[sender]
        out[i] = np.hypot(delta[0], delta[1])
    return out


def reference_channel(positions, ids, spatial, tx_power):
    """A two-ray channel over ``positions`` with the nodes ``ids``
    registered in that order, dense or on a ``REF_CELL`` grid, at one
    transmit power (``"uniform"``: the eager table) or two (``"mixed"``:
    rows finish per sender); every registered radio has sent one frame."""
    sim = Simulator()
    channel = Channel(
        sim, TwoRayGround(), lambda: positions,
        spatial=UniformGridIndex(REF_CELL) if spatial == "grid" else None,
    )
    params = PhyParams.for_ranges(TwoRayGround(), 100.0, REF_CELL)
    quiet = dataclasses.replace(params, tx_power_w=params.tx_power_w / 2)
    for k, node in enumerate(ids.tolist()):
        mixed = tx_power == "mixed" and k % 2
        Radio(sim, node, quiet if mixed else params, channel)
    for node in ids.tolist():
        packet = Packet("DATA", node, BROADCAST, 100, 0.0)
        channel.transmit(
            node, Frame(FrameType.DATA, node, BROADCAST, 128, packet=packet),
            0.001,
        )
    return channel


def _candidates(positions, ids, sender, spatial):
    """A row's candidate receivers by definition, in registration order:
    every registered radio (dense) or those in the sender's 3 x 3 cell
    neighbourhood (grid)."""
    if spatial == "dense":
        return ids.tolist()
    cells = np.floor(positions / REF_CELL)
    return [
        node for node in ids.tolist()
        if np.all(np.abs(cells[node] - cells[sender]) <= 1)
    ]


def assert_rows_match_reference(positions, ids, channel, spatial):
    """Each row lists its candidates in registration order (one table
    per slot) and delivers what the per-link reference loops deliver."""
    for reg, sender in enumerate(ids.tolist()):
        near = _candidates(positions, ids, sender, spatial)
        start, end = channel._tbl_offsets[reg:reg + 2]
        assert ids[channel._tbl_cols[start:end]].tolist() == near
        dist = _reference_distances(positions, np.array(near), sender)
        radio = channel._radios[sender]
        powers = TwoRayGround().rx_power_vector(radio.tx_power_w, dist)
        expected = [
            (node, power) for node, power in zip(near, powers.tolist())
            if power >= channel._radios[node].cs_threshold_w
            and node != sender
        ]
        receivers, row_powers, _ = channel._rows[sender]
        assert [
            (receive.__self__.node_id, power)
            for receive, power in zip(receivers, row_powers)
        ] == expected


def assert_table_matches_reference(positions, ids, channel, tx_power, rng):
    """The table's per-pair arrays against the per-link loops, and the
    channel's carrier-sense filter against the inline predicate."""
    # Bit-equal, not approximately equal: the table's vectorized hypot
    # and the per-link scalar hypot are the same numpy ufunc.  An eager
    # table keeps the powers and delays instead of the distances.
    for reg, sender in enumerate(ids.tolist()):
        start, end = channel._tbl_offsets[reg:reg + 2]
        sel_ids = ids[channel._tbl_cols[start:end]]
        dist = _reference_distances(positions, sel_ids, sender)
        if tx_power == "mixed":
            np.testing.assert_array_equal(
                channel._tbl_dist[start:end], dist
            )
            continue
        tx = channel._radios[sender].tx_power_w
        np.testing.assert_array_equal(
            channel._tbl_powers[start:end],
            TwoRayGround().rx_power_vector(tx, dist),
        )
        np.testing.assert_array_equal(
            channel._tbl_delays[start:end], dist / SPEED_OF_LIGHT
        )

    # Random powers with a NaN (which must drop), for every own index.
    cols = np.arange(len(ids), dtype=np.int32)
    thresholds = channel._cs_thresholds
    for own in range(len(ids)):
        powers = rng.uniform(0.0, 2.0, size=len(ids)) * thresholds
        powers[rng.integers(len(ids))] = np.nan
        expected = [
            k for k in range(len(ids))
            if powers[k] >= thresholds[k] and k != own
        ]
        keep = channel._audible(powers, cols, own)
        assert np.flatnonzero(keep).tolist() == expected


def square(x):
    """A module-level trial function, so queued tasks pickle."""
    return x * x


def make_queue(root, ttl_s=30.0, quarantine_after=3, max_attempts=2):
    """A set-up :class:`DirQueue` at ``root`` with a test manifest."""
    queue = DirQueue(
        str(root),
        ttl_s=ttl_s,
        quarantine_after=quarantine_after,
        max_attempts=max_attempts,
    )
    queue.setup({"fingerprint": "test-fp", "ttl_s": ttl_s,
                 "quarantine_after": quarantine_after,
                 "max_attempts": max_attempts,
                 "heartbeat_s": max(0.01, ttl_s / 5.0),
                 "trial_timeout_s": None})
    return queue


def queue_task(key, fn=square, args=None):
    """One queued trial computing ``fn(key)`` unless ``args`` are given."""
    return {
        "key": key,
        "fn": fn,
        "args": (key,) if args is None else args,
        "kwargs": {},
        "index": 0,
        "chaos_mode": None,
        "kill_all": False,
    }
