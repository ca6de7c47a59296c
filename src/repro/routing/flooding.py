"""Blind flooding — the zero-intelligence baseline.

Every data packet is broadcast; every node rebroadcasts unseen packets
until the TTL runs out.  Delivery is maximally robust and maximally
wasteful, which makes it a useful lower bound for routing-overhead studies
and a sanity check for the simulator itself (if flooding cannot deliver,
the network is partitioned).
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Optional, Set

import numpy as np

from repro.net.address import BROADCAST
from repro.net.packet import Packet
from repro.routing.base import RoutingProtocol


@dataclasses.dataclass(frozen=True)
class FloodingConfig:
    """Tunables for the flooding baseline."""

    default_ttl: int = 16
    broadcast_jitter_s: float = 0.01


#: The configuration every agent built without one shares (frozen).
_DEFAULT_CONFIG = FloodingConfig()


class Flooding(RoutingProtocol):
    """Broadcast-everything 'routing'."""

    name = "FLOODING"

    def __init__(
        self,
        node: "Node",
        rng: Optional[np.random.Generator] = None,
        config: Optional[FloodingConfig] = None,
    ) -> None:
        super().__init__(node, rng)
        self.config = config if config is not None else _DEFAULT_CONFIG
        self._seen: Set[int] = set()

    def route_output(self, packet: Packet) -> None:
        self._seen.add(packet.uid)
        capped = copy.copy(packet)
        capped.ttl = min(packet.ttl, self.config.default_ttl)
        self.node.send_via(capped, BROADCAST)

    def forward_data(self, packet: Packet, prev_hop: int) -> None:
        if packet.uid in self._seen:
            return
        self._seen.add(packet.uid)
        if packet.ttl <= 1:
            self.node.drop(packet, "ttl_expired")
            return
        self.sim.schedule(
            float(self.rng.uniform(0.0, self.config.broadcast_jitter_s)),
            self.node.send_via,
            packet.copy_for_forwarding(),
            BROADCAST,
        )

    def recv_control(self, packet: Packet, prev_hop: int) -> None:
        """Flooding has no control plane; nothing to do."""
