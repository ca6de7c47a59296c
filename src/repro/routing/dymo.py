"""Dynamic MANET On-demand routing (draft-ietf-manet-dymo style).

Paper Section III-B.3.  DYMO keeps AODV's sequence-numbered RREQ/RREP
discovery but simplifies the design and adds **path accumulation**: every
routing message carries the addresses (and sequence numbers) of all nodes
it traversed, so "besides route information about a requested target, a
node will also receive information about all intermediate nodes of a newly
discovered path".  Unlike AODV, only the target answers a RREQ, and link
breakage floods RERRs to *all* nodes in range, each re-flooding when the
report invalidates one of its own routes.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from repro.des.event import Event
from repro.des.timer import PeriodicTimer
from repro.net.address import BROADCAST
from repro.net.packet import Packet
from repro.routing.base import RoutingProtocol
from repro.routing.table import RouteTable

RREQ = "DYMO_RREQ"
RREP = "DYMO_RREP"
RERR = "DYMO_RERR"
HELLO = "DYMO_HELLO"

_BASE_RM_SIZE = 16  # fixed routing-message part
_PATH_ENTRY_SIZE = 8  # per accumulated (address, seq) pair
HELLO_SIZE = 12


@dataclasses.dataclass(frozen=True)
class DymoConfig:
    """Protocol constants (draft-ietf-manet-dymo-14 defaults, hello per
    Table I)."""

    hello_interval_s: float = 1.0
    allowed_hello_loss: int = 2
    route_timeout_s: float = 5.0
    net_traversal_time_s: float = 2.8
    rreq_retries: int = 2
    buffer_capacity: int = 64
    broadcast_jitter_s: float = 0.01
    msg_hop_limit: int = 20

    @property
    def neighbor_lifetime_s(self) -> float:
        """Link considered broken after this long without a HELLO."""
        return self.allowed_hello_loss * self.hello_interval_s


#: The configuration every agent built without one shares (frozen).
_DEFAULT_CONFIG = DymoConfig()


@dataclasses.dataclass(frozen=True)
class RoutingMessage:
    """Shared RREQ/RREP contents with the accumulated path.

    ``path`` starts with the originator and gains one ``(address, seq)``
    entry per forwarding hop; a handler thus learns a route to *every*
    listed node, with hop counts given by list position.
    """

    msg_id: int
    orig: int
    orig_seq: int
    target: int
    target_seq: int  # 0 = unknown (RREQ); the target's seq (RREP)
    path: Tuple[Tuple[int, int], ...]


@dataclasses.dataclass(frozen=True)
class RerrHeader:
    """Unreachable destinations announced after a link break."""

    unreachable: Tuple[Tuple[int, int], ...]


class _Discovery:
    """Pending route discovery for one target."""

    __slots__ = ("retries", "timer")

    def __init__(self, timer: Event) -> None:
        self.retries = 0
        self.timer = timer


def _rm_size(header: RoutingMessage) -> int:
    return _BASE_RM_SIZE + _PATH_ENTRY_SIZE * len(header.path)


class Dymo(RoutingProtocol):
    """One node's DYMO agent."""

    name = "DYMO"

    def __init__(
        self,
        node: "Node",
        rng: Optional[np.random.Generator] = None,
        config: Optional[DymoConfig] = None,
    ) -> None:
        super().__init__(node, rng)
        self.config = config if config is not None else _DEFAULT_CONFIG
        self.table = RouteTable()
        self._seq = 0
        self._msg_id = 0
        self._seen: Dict[Tuple[int, int], float] = {}
        self._buffer: Dict[int, Deque[Tuple[Packet, float]]] = (
            collections.defaultdict(collections.deque)
        )
        self._pending: Dict[int, _Discovery] = {}
        self._neighbors: Dict[int, float] = {}
        self._hello_timer: Optional[PeriodicTimer] = None
        self._maintenance_timer: Optional[PeriodicTimer] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Arm the HELLO beacon and maintenance sweep."""
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

    # -- introspection ----------------------------------------------------------

    def next_hop_for(self, dst: int):
        entry = self.table.lookup(dst, self.sim.now)
        return entry.next_hop if entry is not None else None

    def reset_state(self) -> None:
        """Crash-wipe: forget routes, neighbours and pending discoveries.

        ``_seq``/``_msg_id`` survive so post-recovery routing messages
        are never mistaken for stale ones.
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

    # -- data path --------------------------------------------------------------

    def route_output(self, packet: Packet) -> None:
        entry = self.table.lookup(packet.dst, self.sim.now)
        if entry is not None:
            self.table.refresh(
                packet.dst, self.config.route_timeout_s, self.sim.now
            )
            self.node.send_via(packet, entry.next_hop)
            return
        self._enqueue_for_discovery(packet)

    def forward_data(self, packet: Packet, prev_hop: int) -> None:
        if packet.ttl <= 1:
            self.node.drop(packet, "ttl_expired")
            return
        now = self.sim.now
        entry = self.table.lookup(packet.dst, now)
        if entry is None:
            self.node.drop(packet, "no_route")
            self._originate_rerr([(packet.dst, self._known_seq(packet.dst))])
            return
        self.table.refresh(packet.dst, self.config.route_timeout_s, now)
        self.table.refresh(packet.src, self.config.route_timeout_s, now)
        self.node.send_via(packet.copy_for_forwarding(), entry.next_hop)

    # -- control path --------------------------------------------------------------

    def recv_control(self, packet: Packet, prev_hop: int) -> None:
        if packet.kind == RREQ:
            self._recv_rreq(packet, prev_hop)
        elif packet.kind == RREP:
            self._recv_rrep(packet, prev_hop)
        elif packet.kind == RERR:
            self._recv_rerr(packet, prev_hop)
        elif packet.kind == HELLO:
            self._recv_hello(packet, prev_hop)

    def on_link_failure(self, packet: Packet, next_hop: int) -> None:
        self._handle_link_break(next_hop)
        if packet.is_data:
            self._enqueue_for_discovery(packet)

    # -- discovery ------------------------------------------------------------------

    def _enqueue_for_discovery(self, packet: Packet) -> None:
        cfg = self.config
        queue = self._buffer[packet.dst]
        if len(queue) >= cfg.buffer_capacity:
            dropped, _ = queue.popleft()
            self.node.drop(dropped, "buffer_overflow")
        queue.append((packet, self.sim.now + 2 * cfg.net_traversal_time_s))
        if packet.dst not in self._pending:
            self._send_rreq(packet.dst)

    def _send_rreq(self, target: int) -> None:
        cfg = self.config
        self._msg_id += 1
        self._seq += 1
        header = RoutingMessage(
            msg_id=self._msg_id,
            orig=self.address,
            orig_seq=self._seq,
            target=target,
            target_seq=self._known_seq(target),
            path=((self.address, self._seq),),
        )
        self._seen[(self.address, self._msg_id)] = (
            self.sim.now + 2 * cfg.net_traversal_time_s
        )
        self.send_control(
            RREQ,
            header,
            _rm_size(header),
            BROADCAST,
            ttl=cfg.msg_hop_limit,
            jitter_s=cfg.broadcast_jitter_s,
        )
        discovery = self._pending.get(target)
        timeout = cfg.net_traversal_time_s * (
            2 ** (discovery.retries if discovery else 0)
        )
        timer = self.sim.schedule(timeout, self._discovery_timeout, target)
        if discovery is None:
            self._pending[target] = _Discovery(timer)
        else:
            discovery.timer = timer

    def _discovery_timeout(self, target: int) -> None:
        discovery = self._pending.get(target)
        if discovery is None:
            return
        if discovery.retries < self.config.rreq_retries:
            discovery.retries += 1
            self._send_rreq(target)
            return
        del self._pending[target]
        for packet, _deadline in self._buffer.pop(target, ()):
            self.node.drop(packet, "no_route")

    def _flush_buffer(self, target: int) -> None:
        discovery = self._pending.pop(target, None)
        if discovery is not None:
            discovery.timer.cancel()
        now = self.sim.now
        for packet, deadline in self._buffer.pop(target, ()):
            if deadline <= now:
                self.node.drop(packet, "buffer_timeout")
                continue
            entry = self.table.lookup(target, now)
            if entry is None:
                self.node.drop(packet, "no_route")
                continue
            self.node.send_via(packet, entry.next_hop)

    # -- message handlers ---------------------------------------------------------------

    def _install_path(
        self, header: RoutingMessage, prev_hop: int
    ) -> None:
        """Path accumulation pay-off: learn a route to every listed node.

        The last path entry is one hop away (it was the forwarder we heard),
        the first (the originator) is ``len(path)`` hops away.
        """
        now = self.sim.now
        total = len(header.path)
        for index, (addr, seq) in enumerate(header.path):
            if addr == self.address:
                continue
            hops = total - index
            self.table.update(
                addr, prev_hop, hops, seq, self.config.route_timeout_s, now
            )

    def _recv_rreq(self, packet: Packet, prev_hop: int) -> None:
        cfg = self.config
        header: RoutingMessage = packet.header
        key = (header.orig, header.msg_id)
        if key in self._seen:
            return
        self._seen[key] = self.sim.now + 2 * cfg.net_traversal_time_s
        self._note_neighbor(prev_hop)
        if header.orig == self.address:
            return
        self._install_path(header, prev_hop)
        if header.target == self.address:
            # Only the target replies (no intermediate RREPs in DYMO).
            self._seq = max(self._seq, header.target_seq) + 1
            self._msg_id += 1
            reply = RoutingMessage(
                msg_id=self._msg_id,
                orig=self.address,
                orig_seq=self._seq,
                target=header.orig,
                target_seq=header.orig_seq,
                path=((self.address, self._seq),),
            )
            self._send_rrep(reply)
            return
        if packet.ttl > 1:
            forwarded = dataclasses.replace(
                header, path=header.path + ((self.address, self._seq),)
            )
            self.send_control(
                RREQ,
                forwarded,
                _rm_size(forwarded),
                BROADCAST,
                ttl=packet.ttl - 1,
                jitter_s=cfg.broadcast_jitter_s,
            )

    def _send_rrep(self, header: RoutingMessage) -> None:
        entry = self.table.lookup(header.target, self.sim.now)
        if entry is None:
            return
        self.send_control(RREP, header, _rm_size(header), entry.next_hop)

    def _recv_rrep(self, packet: Packet, prev_hop: int) -> None:
        header: RoutingMessage = packet.header
        key = (header.orig, header.msg_id)
        if key in self._seen:
            return
        self._seen[key] = self.sim.now + 2 * self.config.net_traversal_time_s
        self._note_neighbor(prev_hop)
        self._install_path(header, prev_hop)
        if header.target == self.address:
            # Discovery complete: the RREP's originator is our target.
            self._flush_buffer(header.orig)
            return
        forwarded = dataclasses.replace(
            header, path=header.path + ((self.address, self._seq),)
        )
        self._send_rrep(forwarded)

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
            # "Effectively flooding information about a link breakage
            # through the MANET" (paper Section III-B.3).
            self._originate_rerr(invalidated)

    def _recv_hello(self, packet: Packet, prev_hop: int) -> None:
        header: RoutingMessage = packet.header
        self._note_neighbor(prev_hop)
        self.table.update(
            prev_hop,
            prev_hop,
            1,
            header.orig_seq,
            self.config.neighbor_lifetime_s + self.config.hello_interval_s,
            self.sim.now,
        )

    # -- maintenance --------------------------------------------------------------------

    def _send_hello(self) -> None:
        self._seq += 1
        self._msg_id += 1
        header = RoutingMessage(
            msg_id=self._msg_id,
            orig=self.address,
            orig_seq=self._seq,
            target=BROADCAST,
            target_seq=0,
            path=((self.address, self._seq),),
        )
        self.send_control(HELLO, header, HELLO_SIZE, BROADCAST)

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
            RERR,
            header,
            size,
            BROADCAST,
            jitter_s=self.config.broadcast_jitter_s,
        )

    def _known_seq(self, dst: int) -> int:
        entry = self.table.get(dst)
        return entry.seq if entry is not None else 0
