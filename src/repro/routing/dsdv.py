"""Destination-Sequenced Distance Vector routing (extension baseline).

The paper introduces AODV as "an improvement of DSDV to on-demand scheme"
(Section III-B.2); having the ancestor protocol available makes that
comparison runnable.  Classic DSDV: every node periodically broadcasts its
full routing table with per-destination sequence numbers; even sequence
numbers originate at the destination, odd ones mark broken routes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

from repro.des.timer import PeriodicTimer
from repro.net.address import BROADCAST
from repro.net.packet import Packet
from repro.routing.base import RoutingProtocol

UPDATE = "DSDV_UPDATE"


@dataclasses.dataclass(frozen=True)
class DsdvConfig:
    """Protocol constants."""

    update_interval_s: float = 5.0
    neighbor_hold_s: float = 12.0
    broadcast_jitter_s: float = 0.1


#: The configuration every agent built without one shares (frozen).
_DEFAULT_CONFIG = DsdvConfig()


@dataclasses.dataclass(frozen=True)
class UpdateHeader:
    """A full-table dump: (dst, seq, hops) triples."""

    entries: Tuple[Tuple[int, int, int], ...]


@dataclasses.dataclass
class _DsdvRoute:
    next_hop: int
    hops: int
    seq: int
    installed_at: float


def _update_size(header: UpdateHeader) -> int:
    return 8 + 12 * len(header.entries)


class Dsdv(RoutingProtocol):
    """One node's DSDV agent."""

    name = "DSDV"

    def __init__(
        self,
        node: "Node",
        rng: Optional[np.random.Generator] = None,
        config: Optional[DsdvConfig] = None,
    ) -> None:
        super().__init__(node, rng)
        self.config = config if config is not None else _DEFAULT_CONFIG
        self._seq = 0  # own sequence number (always even when advertised)
        self._routes: Dict[int, _DsdvRoute] = {}
        self._last_heard: Dict[int, float] = {}
        self._update_timer: Optional[PeriodicTimer] = None

    def start(self) -> None:
        """Arm the periodic full-table broadcast."""
        self._update_timer = PeriodicTimer(
            self.sim,
            self.config.update_interval_s,
            self._broadcast_update,
            jitter=self.config.update_interval_s * 0.1,
            rng=self.rng,
        )
        self._update_timer.start()
        # First advertisement goes out immediately (jittered) so the
        # network converges before one full interval elapses.
        self.sim.schedule(
            float(self.rng.uniform(0.0, self.config.broadcast_jitter_s)),
            self._broadcast_update,
        )

    # -- introspection ----------------------------------------------------------

    def next_hop_for(self, dst: int):
        route = self._valid_route(dst)
        return route.next_hop if route is not None else None

    # -- data path ------------------------------------------------------------

    def route_output(self, packet: Packet) -> None:
        route = self._valid_route(packet.dst)
        if route is None:
            self.node.drop(packet, "no_route")
            return
        self.node.send_via(packet, route.next_hop)

    def forward_data(self, packet: Packet, prev_hop: int) -> None:
        if packet.ttl <= 1:
            self.node.drop(packet, "ttl_expired")
            return
        route = self._valid_route(packet.dst)
        if route is None:
            self.node.drop(packet, "no_route")
            return
        self.node.send_via(packet.copy_for_forwarding(), route.next_hop)

    # -- control path ------------------------------------------------------------

    def recv_control(self, packet: Packet, prev_hop: int) -> None:
        if packet.kind != UPDATE:
            return
        header: UpdateHeader = packet.header
        now = self.sim.now
        self._last_heard[prev_hop] = now
        changed = False
        for dst, seq, hops in header.entries:
            if dst == self.address:
                continue
            new_hops = hops + 1
            current = self._routes.get(dst)
            broken = seq % 2 == 1
            if broken:
                if (
                    current is not None
                    and current.next_hop == prev_hop
                    and seq > current.seq
                ):
                    current.seq = seq
                    current.hops = 1 << 16  # infinity
                    changed = True
                continue
            if (
                current is None
                or seq > current.seq
                or (seq == current.seq and new_hops < current.hops)
            ):
                self._routes[dst] = _DsdvRoute(prev_hop, new_hops, seq, now)
                changed = True
        if changed:
            pass  # full-dump DSDV relies on the periodic advertisement

    def on_link_failure(self, packet: Packet, next_hop: int) -> None:
        self._break_via(next_hop)
        if packet.is_data:
            self.node.drop(packet, "no_route")

    # -- internals ------------------------------------------------------------------

    def _valid_route(self, dst: int) -> Optional[_DsdvRoute]:
        self._expire_neighbors()
        route = self._routes.get(dst)
        if route is None or route.hops >= 1 << 16:
            return None
        return route

    def _broadcast_update(self) -> None:
        self._expire_neighbors()
        self._seq += 2
        entries = [(self.address, self._seq, 0)]
        for dst, route in self._routes.items():
            if route.hops < 1 << 16:
                entries.append((dst, route.seq, route.hops))
            else:
                entries.append((dst, route.seq, 1 << 16))
        header = UpdateHeader(entries=tuple(entries))
        self.send_control(
            UPDATE,
            header,
            _update_size(header),
            BROADCAST,
            jitter_s=self.config.broadcast_jitter_s,
        )

    def _expire_neighbors(self) -> None:
        now = self.sim.now
        expired = [
            nbr
            for nbr, last in self._last_heard.items()
            if now - last > self.config.neighbor_hold_s
        ]
        for nbr in expired:
            del self._last_heard[nbr]
            self._break_via(nbr)

    def _break_via(self, next_hop: int) -> None:
        for route in self._routes.values():
            if route.next_hop == next_hop and route.hops < 1 << 16:
                route.hops = 1 << 16
                route.seq += 1  # odd: broken
        self.node.mac.flush_next_hop(next_hop)
