"""The on-demand routing core AODV and DYMO share.

Paper Section III-B: DYMO is "AODV's sequence-numbered RREQ/RREP
discovery, simplified, plus path accumulation".  What the two protocols
do the same way lives here, once:

* a per-destination buffer for data awaiting a route, oldest packet
  dropped on overflow;
* route discovery: the RREQ send skeleton (bump the sequence number and
  message id, mark our own RREQ as seen, broadcast, arm the timeout),
  retries with the timeouts and TTLs the config computes, and the
  buffer flush once a route arrives;
* neighbour upkeep from HELLOs, the maintenance sweep that expires
  silent neighbours and old duplicate-cache keys, and link breaks;
* Route Error handling: a RERR invalidates only routes through its
  sender and is re-broadcast only when it invalidated something;
* the crash wipe, the control dispatch and the route lookup.

A subclass supplies its packet kinds (``RREQ``, ``RREP``, ``RERR``,
``HELLO``), its default config, the RREQ contents
(:meth:`ReactiveProtocol._rreq_header`), its RREQ/RREP/HELLO handlers,
``_send_hello`` and the data path (``route_output``, ``forward_data``).
The config provides ``hello_interval_s``, ``neighbor_lifetime_s``,
``path_discovery_time_s``, ``buffer_capacity``, ``broadcast_jitter_s``,
``rreq_ttl(attempt)``, ``rreq_timeout_s(attempt)`` and
``max_discovery_attempts``.
"""

from __future__ import annotations

import abc
import collections
import dataclasses
from typing import Any, Deque, Dict, Optional, Tuple

import numpy as np

from repro.des.event import Event
from repro.des.timer import PeriodicTimer
from repro.net.address import BROADCAST
from repro.net.packet import Packet
from repro.routing.base import RoutingProtocol
from repro.routing.table import RouteTable


@dataclasses.dataclass(frozen=True)
class RerrHeader:
    """Route Error contents: destinations now unreachable via the sender."""

    unreachable: Tuple[Tuple[int, int], ...]  # (dst, dst_seq) pairs


class _Discovery:
    """Pending route discovery for one destination."""

    __slots__ = ("retries", "timer")

    def __init__(self, timer: Event) -> None:
        self.retries = 0
        self.timer = timer


class ReactiveProtocol(RoutingProtocol):
    """One node's on-demand routing agent (see the module docstring)."""

    __slots__ = (
        "config", "table", "_seq", "_msg_id", "_seen", "_buffer",
        "_pending", "_neighbors", "_hello_timer", "_maintenance_timer",
    )

    #: Packet kinds of this protocol's control messages.
    RREQ = RREP = RERR = HELLO = ""

    #: The frozen configuration every agent built without one shares.
    default_config: Any = None

    def __init__(
        self,
        node: "Node",
        rng: Optional[np.random.Generator] = None,
        config: Any = None,
    ) -> None:
        super().__init__(node, rng)
        self.config = config if config is not None else self.default_config
        self.table = RouteTable()
        self._seq = 0
        self._msg_id = 0
        # (originator, message id) -> time the key may be forgotten.
        self._seen: Dict[Tuple[int, int], float] = {}
        self._buffer: Dict[int, Deque[Tuple[Packet, float]]] = (
            collections.defaultdict(collections.deque)
        )
        self._pending: Dict[int, _Discovery] = {}
        self._neighbors: Dict[int, float] = {}  # nbr -> last heard
        self._hello_timer: Optional[PeriodicTimer] = None
        self._maintenance_timer: Optional[PeriodicTimer] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Arm the HELLO beacon and the maintenance sweep."""
        cfg = self.config
        self._hello_timer = PeriodicTimer(
            self.sim,
            cfg.hello_interval_s,
            self._send_hello,
            jitter=cfg.hello_interval_s * 0.1,
            rng=self.rng,
        )
        self._hello_timer.start()
        self._maintenance_timer = PeriodicTimer(
            self.sim, cfg.hello_interval_s, self._maintenance, rng=self.rng
        )
        self._maintenance_timer.start()

    def reset_state(self) -> None:
        """Crash-wipe: forget routes, neighbours and pending discoveries.

        ``_seq``/``_msg_id`` survive (RFC 3561 wants sequence numbers
        monotone across reboots so stale routes lose to fresh ones).
        """
        for discovery in self._pending.values():
            discovery.timer.cancel()
        self._pending.clear()
        for queue in self._buffer.values():
            for packet, _deadline in queue:
                self.node.drop(packet, "node_down")
        self._buffer.clear()
        self.table = RouteTable()
        self._seen.clear()
        self._neighbors.clear()

    # -- introspection ---------------------------------------------------------

    def next_hop_for(self, dst: int):
        entry = self.table.lookup(dst, self.sim.now)
        return entry.next_hop if entry is not None else None

    # -- control path -------------------------------------------------------------

    def recv_control(self, packet: Packet, prev_hop: int) -> None:
        kind = packet.kind
        if kind == self.HELLO:
            self._recv_hello(packet, prev_hop)
        elif kind == self.RREQ:
            self._recv_rreq(packet, prev_hop)
        elif kind == self.RREP:
            self._recv_rrep(packet, prev_hop)
        elif kind == self.RERR:
            self._recv_rerr(packet, prev_hop)

    def on_link_failure(self, packet: Packet, next_hop: int) -> None:
        self._handle_link_break(next_hop)
        if packet.is_data:
            # Salvage the packet through a fresh discovery.
            self._enqueue_for_discovery(packet)

    # -- discovery ----------------------------------------------------------------

    def _enqueue_for_discovery(self, packet: Packet) -> None:
        cfg = self.config
        queue = self._buffer[packet.dst]
        if len(queue) >= cfg.buffer_capacity:
            dropped, _ = queue.popleft()
            self.node.drop(dropped, "buffer_overflow")
        queue.append((packet, self.sim.now + cfg.path_discovery_time_s))
        if packet.dst not in self._pending:
            self._send_rreq(packet.dst)

    @abc.abstractmethod
    def _rreq_header(self, dst: int) -> Tuple[Any, int]:
        """This protocol's RREQ for ``dst`` and its size in bytes.

        Called after ``_seq`` and ``_msg_id`` were bumped for it.
        """

    def _send_rreq(self, dst: int) -> None:
        cfg = self.config
        discovery = self._pending.get(dst)
        attempt = discovery.retries if discovery else 0
        self._msg_id += 1
        self._seq += 1
        header, size = self._rreq_header(dst)
        # Mark our own RREQ as seen so neighbours echoing it back are inert.
        self._seen[(self.address, self._msg_id)] = (
            self.sim.now + cfg.path_discovery_time_s
        )
        self.send_control(
            self.RREQ,
            header,
            size,
            BROADCAST,
            ttl=cfg.rreq_ttl(attempt),
            jitter_s=cfg.broadcast_jitter_s,
        )
        timer = self.sim.schedule(
            cfg.rreq_timeout_s(attempt), self._discovery_timeout, dst
        )
        if discovery is None:
            self._pending[dst] = _Discovery(timer)
        else:
            discovery.timer = timer

    def _discovery_timeout(self, dst: int) -> None:
        discovery = self._pending.get(dst)
        if discovery is None:
            return
        if discovery.retries + 1 < self.config.max_discovery_attempts:
            discovery.retries += 1
            self._send_rreq(dst)
            return
        del self._pending[dst]
        for packet, _deadline in self._buffer.pop(dst, ()):
            self.node.drop(packet, "no_route")

    def _flush_buffer(self, dst: int) -> None:
        discovery = self._pending.pop(dst, None)
        if discovery is not None:
            discovery.timer.cancel()
        now = self.sim.now
        for packet, deadline in self._buffer.pop(dst, ()):
            if deadline <= now:
                self.node.drop(packet, "buffer_timeout")
                continue
            entry = self.table.lookup(dst, now)
            if entry is None:
                self.node.drop(packet, "no_route")
                continue
            self.node.send_via(packet, entry.next_hop)

    # -- route errors and neighbours -------------------------------------------------

    def _recv_rerr(self, packet: Packet, prev_hop: int) -> None:
        header: RerrHeader = packet.header
        invalidated = []
        for dst, seq in header.unreachable:
            entry = self.table.get(dst)
            if (
                entry is not None
                and entry.valid
                and entry.next_hop == prev_hop
            ):
                entry.valid = False
                entry.seq = max(entry.seq, seq)
                invalidated.append((dst, entry.seq))
        if invalidated:
            # Pass the news on: "effectively flooding information about a
            # link breakage through the MANET" (paper Section III-B.3).
            self._originate_rerr(invalidated)

    def _maintenance(self) -> None:
        now = self.sim.now
        expired = [
            nbr
            for nbr, last in self._neighbors.items()
            if now - last > self.config.neighbor_lifetime_s
        ]
        for nbr in expired:
            del self._neighbors[nbr]
            self._handle_link_break(nbr)
        self._seen = {
            key: until for key, until in self._seen.items() if until > now
        }

    def _note_neighbor(self, nbr: int) -> None:
        self._neighbors[nbr] = self.sim.now

    def _handle_link_break(self, next_hop: int) -> None:
        self._neighbors.pop(next_hop, None)
        broken = self.table.invalidate_via(next_hop)
        self.node.mac.flush_next_hop(next_hop)
        if broken:
            self._originate_rerr([(e.dst, e.seq) for e in broken])

    def _originate_rerr(self, unreachable) -> None:
        header = RerrHeader(unreachable=tuple(unreachable))
        size = 4 + 8 * len(header.unreachable)
        self.send_control(
            self.RERR,
            header,
            size,
            BROADCAST,
            jitter_s=self.config.broadcast_jitter_s,
        )

    def _dest_seq(self, dst: int) -> int:
        """The last sequence number known for ``dst`` (0 = unknown)."""
        entry = self.table.get(dst)
        return entry.seq if entry is not None else 0
