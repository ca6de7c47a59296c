"""Test harness utilities: static-topology networks for protocol tests.

Routing and MAC behaviour is easiest to verify on hand-placed, motionless
topologies (a chain, a star, a partitioned pair).  ``build_network`` wires
the full stack — DES, channel, radios, MACs, nodes, routing — over fixed
positions.  ``make_queue``/``queue_task`` build a claim-file job queue
by hand for the queue-protocol and ``repro worker`` tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.distq import DirQueue
from repro.des.engine import Simulator
from repro.mac.params import Mac80211Params
from repro.metrics.collector import MetricsCollector
from repro.net.node import Node
from repro.phy.channel import Channel
from repro.phy.params import PhyParams
from repro.phy.propagation import TwoRayGround
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
