"""Optimized Link State Routing (RFC 3626 core, with the ETX extension).

Paper Section III-B.1: every node periodically emits HELLOs for link
sensing and neighbour discovery; each node picks a minimal Multi-Point
Relay (MPR) set covering its two-hop neighbourhood; Topology Control (TC)
messages carrying the MPR-selector sets are flooded through the MPR
backbone; routing tables are computed by shortest path over the learned
topology.

The LQ/ETX extension the paper describes (``ETX(i) = 1 / (NI(i) x LQI(i))``
over a sampling window) is implemented behind ``OlsrConfig.metric = "etx"``:
HELLOs then carry measured per-link reception ratios, TCs carry link costs,
and Dijkstra minimises the ETX sum instead of the hop count.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Deque, Dict, Optional, Set, Tuple

import collections

import numpy as np

from repro.des.timer import PeriodicTimer
from repro.net.address import BROADCAST
from repro.net.packet import Packet
from repro.routing.base import RoutingProtocol

HELLO = "OLSR_HELLO"
TC = "OLSR_TC"
HNA = "OLSR_HNA"

#: Link codes carried in HELLO messages.
SYM = "SYM"
MPR = "MPR"
HEARD = "HEARD"

_ETX_FLOOR = 0.01  # reception-ratio product floor: caps a link's ETX at 100


@dataclasses.dataclass(frozen=True)
class OlsrConfig:
    """Protocol constants (intervals per paper Table I).

    ``gateway_for`` lists *external* destination addresses this node acts
    as a gateway towards; they are advertised through HNA messages, which
    RFC 3626 (and paper Section III-B.1) "disseminate network route
    advertisements in the same way TC messages advertise host routes".
    """

    hello_interval_s: float = 1.0
    tc_interval_s: float = 2.0
    hold_multiplier: float = 3.0
    metric: str = "hop"  # "hop" or "etx"
    etx_window: int = 10  # hellos per sampling window W
    broadcast_jitter_s: float = 0.1
    gateway_for: Tuple[int, ...] = ()
    hna_interval_s: float = 5.0

    def __post_init__(self) -> None:
        if self.metric not in ("hop", "etx"):
            raise ValueError(f"metric must be 'hop' or 'etx', got {self.metric}")
        if self.hna_interval_s <= 0:
            raise ValueError(
                f"hna_interval_s must be > 0, got {self.hna_interval_s}"
            )

    @property
    def neighbor_hold_s(self) -> float:
        """Validity of link-sensing information."""
        return self.hold_multiplier * self.hello_interval_s

    @property
    def topology_hold_s(self) -> float:
        """Validity of TC-learned topology tuples."""
        return self.hold_multiplier * self.tc_interval_s


#: The configuration every agent built without one shares (frozen).
_DEFAULT_CONFIG = OlsrConfig()


@dataclasses.dataclass(frozen=True)
class HelloHeader:
    """HELLO contents: who we hear, and (ETX mode) how well."""

    neighbors: Dict[int, str]  # neighbour -> link code
    link_quality: Dict[int, float]  # neighbour -> our reception ratio


@dataclasses.dataclass(frozen=True)
class HnaHeader:
    """HNA contents: external destinations reachable via the originator."""

    orig: int
    seq: int
    networks: Tuple[int, ...]


def _hna_size(header: HnaHeader) -> int:
    return 12 + 8 * len(header.networks)


@dataclasses.dataclass(frozen=True)
class TcHeader:
    """TC contents: the originator's advertised (selector) links."""

    orig: int
    ansn: int
    seq: int
    advertised: Tuple[int, ...]
    costs: Tuple[float, ...]


class _Link:
    """Link-set entry for one neighbour."""

    __slots__ = ("heard_until", "sym_until", "lqi")

    def __init__(self) -> None:
        self.heard_until = 0.0
        self.sym_until = 0.0
        self.lqi = 1.0  # neighbour-reported quality of our transmissions


def _hello_size(header: HelloHeader) -> int:
    return 12 + 5 * len(header.neighbors) + 4 * len(header.link_quality)


def _tc_size(header: TcHeader) -> int:
    return 12 + 8 * len(header.advertised)


class Olsr(RoutingProtocol):
    """One node's OLSR agent."""

    name = "OLSR"

    def __init__(
        self,
        node: "Node",
        rng: Optional[np.random.Generator] = None,
        config: Optional[OlsrConfig] = None,
    ) -> None:
        super().__init__(node, rng)
        self.config = config if config is not None else _DEFAULT_CONFIG
        self._links: Dict[int, _Link] = {}
        self._two_hop: Dict[Tuple[int, int], Tuple[float, float]] = {}
        self._mprs: Set[int] = set()
        self._mpr_selectors: Dict[int, float] = {}
        self._topology: Dict[Tuple[int, int], Tuple[float, float]] = {}
        self._ansn_seen: Dict[int, int] = {}
        self._dups: Dict[Tuple[int, int], float] = {}
        self._routes: Dict[int, Tuple[int, int]] = {}  # dst -> (next_hop, hops)
        self._hna: Dict[int, Dict[int, float]] = {}  # external -> {gw: until}
        self._dirty = True
        self._hello_rx: Dict[int, Deque[float]] = {}
        self._ansn = 0
        self._msg_seq = 0
        self._hello_timer: Optional[PeriodicTimer] = None
        self._tc_timer: Optional[PeriodicTimer] = None
        self._hna_timer: Optional[PeriodicTimer] = None
        self._maintenance_timer: Optional[PeriodicTimer] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Arm HELLO, TC and maintenance timers."""
        cfg = self.config
        self._hello_timer = PeriodicTimer(
            self.sim,
            cfg.hello_interval_s,
            self._send_hello,
            jitter=cfg.hello_interval_s * 0.1,
            rng=self.rng,
        )
        self._hello_timer.start()
        self._tc_timer = PeriodicTimer(
            self.sim,
            cfg.tc_interval_s,
            self._send_tc,
            jitter=cfg.tc_interval_s * 0.1,
            rng=self.rng,
        )
        self._tc_timer.start()
        if cfg.gateway_for:
            self._hna_timer = PeriodicTimer(
                self.sim,
                cfg.hna_interval_s,
                self._send_hna,
                jitter=cfg.hna_interval_s * 0.1,
                rng=self.rng,
                start_delay=cfg.tc_interval_s,  # after some topology exists
            )
            self._hna_timer.start()
        self._maintenance_timer = PeriodicTimer(
            self.sim, cfg.hello_interval_s, self._maintenance, rng=self.rng
        )
        self._maintenance_timer.start()

    # -- introspection ---------------------------------------------------------

    def next_hop_for(self, dst: int):
        route = self._route_for(dst)
        if route is None:
            route = self._hna_route(dst)
        return route[0] if route is not None else None

    def reset_state(self) -> None:
        """Crash-wipe: forget every learned link, topology and route.

        ``_ansn``/``_msg_seq`` survive so post-recovery TC floods are
        never discarded as stale by nodes holding pre-crash state.
        """
        self._links.clear()
        self._two_hop.clear()
        self._mprs = set()
        self._mpr_selectors.clear()
        self._topology.clear()
        self._ansn_seen.clear()
        self._dups.clear()
        self._routes = {}
        self._hna.clear()
        self._hello_rx.clear()
        self._dirty = True

    # -- data path -------------------------------------------------------------

    def route_output(self, packet: Packet) -> None:
        if packet.dst in self.config.gateway_for:
            # We are the gateway for this external destination.
            self.node.deliver_local(packet, self.address)
            return
        route = self._route_for(packet.dst)
        if route is None:
            route = self._hna_route(packet.dst)
        if route is None:
            # Proactive routing has no discovery to fall back on.
            self.node.drop(packet, "no_route")
            return
        self.node.send_via(packet, route[0])

    def forward_data(self, packet: Packet, prev_hop: int) -> None:
        if packet.dst in self.config.gateway_for:
            self.node.deliver_local(packet, prev_hop)
            return
        if packet.ttl <= 1:
            self.node.drop(packet, "ttl_expired")
            return
        route = self._route_for(packet.dst)
        if route is None:
            route = self._hna_route(packet.dst)
        if route is None:
            self.node.drop(packet, "no_route")
            return
        self.node.send_via(packet.copy_for_forwarding(), route[0])

    # -- control path --------------------------------------------------------------

    def recv_control(self, packet: Packet, prev_hop: int) -> None:
        if packet.kind == HELLO:
            self._recv_hello(packet, prev_hop)
        elif packet.kind == TC:
            self._recv_tc(packet, prev_hop)
        elif packet.kind == HNA:
            self._recv_hna(packet, prev_hop)

    def on_link_failure(self, packet: Packet, next_hop: int) -> None:
        link = self._links.pop(next_hop, None)
        self._hello_rx.pop(next_hop, None)
        self._mpr_selectors.pop(next_hop, None)
        self.node.mac.flush_next_hop(next_hop)
        if link is not None:
            self._dirty = True
        if packet.is_data:
            route = self._route_for(packet.dst)
            if route is not None and route[0] != next_hop:
                self.node.send_via(packet, route[0])
            else:
                self.node.drop(packet, "no_route")

    # -- HELLO ----------------------------------------------------------------------

    def _send_hello(self) -> None:
        now = self.sim.now
        neighbors: Dict[int, str] = {}
        quality: Dict[int, float] = {}
        for nbr, link in self._links.items():
            if link.heard_until <= now:
                continue
            if link.sym_until > now:
                neighbors[nbr] = MPR if nbr in self._mprs else SYM
            else:
                neighbors[nbr] = HEARD
            if self.config.metric == "etx":
                quality[nbr] = self._reception_ratio(nbr)
        header = HelloHeader(neighbors=neighbors, link_quality=quality)
        self.send_control(
            HELLO,
            header,
            _hello_size(header),
            BROADCAST,
            ttl=1,
            jitter_s=self.config.broadcast_jitter_s,
        )

    def _recv_hello(self, packet: Packet, prev_hop: int) -> None:
        cfg = self.config
        now = self.sim.now
        header: HelloHeader = packet.header
        link = self._links.setdefault(prev_hop, _Link())
        link.heard_until = now + cfg.neighbor_hold_s
        self._hello_rx.setdefault(
            prev_hop, collections.deque(maxlen=cfg.etx_window)
        ).append(now)
        me = self.address
        if me in header.neighbors:
            link.sym_until = now + cfg.neighbor_hold_s
            if header.neighbors[me] == MPR:
                self._mpr_selectors[prev_hop] = now + cfg.neighbor_hold_s
            else:
                self._mpr_selectors.pop(prev_hop, None)
        link.lqi = header.link_quality.get(me, 1.0)
        # Rebuild this neighbour's two-hop contribution.
        for key in [k for k in self._two_hop if k[0] == prev_hop]:
            del self._two_hop[key]
        for n2, code in header.neighbors.items():
            if n2 == me or code == HEARD:
                continue
            ratio = header.link_quality.get(n2, 1.0)
            cost = (
                1.0 / max(ratio * ratio, _ETX_FLOOR)
                if cfg.metric == "etx"
                else 1.0
            )
            self._two_hop[(prev_hop, n2)] = (now + cfg.neighbor_hold_s, cost)
        self._select_mprs()
        self._dirty = True

    # -- TC --------------------------------------------------------------------------

    def _send_tc(self) -> None:
        now = self.sim.now
        selectors = [
            nbr for nbr, until in self._mpr_selectors.items() if until > now
        ]
        if not selectors:
            return  # RFC 3626 s9.3: no selectors, no TC
        self._ansn += 1
        self._msg_seq += 1
        costs = tuple(
            self._link_cost(nbr) if self.config.metric == "etx" else 1.0
            for nbr in selectors
        )
        header = TcHeader(
            orig=self.address,
            ansn=self._ansn,
            seq=self._msg_seq,
            advertised=tuple(selectors),
            costs=costs,
        )
        self.send_control(
            TC,
            header,
            _tc_size(header),
            BROADCAST,
            ttl=255,
            jitter_s=self.config.broadcast_jitter_s,
        )

    def _recv_tc(self, packet: Packet, prev_hop: int) -> None:
        cfg = self.config
        now = self.sim.now
        header: TcHeader = packet.header
        if header.orig == self.address:
            return
        key = (header.orig, header.seq)
        if key in self._dups:
            return
        self._dups[key] = now + 2 * cfg.topology_hold_s
        link = self._links.get(prev_hop)
        if link is None or link.sym_until <= now:
            return  # RFC 3626 s9.5: only accept TCs over symmetric links
        known_ansn = self._ansn_seen.get(header.orig, -1)
        if header.ansn < known_ansn:
            return  # stale topology information
        if header.ansn > known_ansn:
            self._ansn_seen[header.orig] = header.ansn
            for topo_key in [
                k for k in self._topology if k[1] == header.orig
            ]:
                del self._topology[topo_key]
        for dst, cost in zip(header.advertised, header.costs):
            self._topology[(dst, header.orig)] = (
                now + cfg.topology_hold_s,
                cost,
            )
        self._dirty = True
        # Default forwarding rule: retransmit iff the sender selected us
        # as one of its MPRs.
        if prev_hop in self._mpr_selectors and packet.ttl > 1:
            self.send_control(
                TC,
                header,
                _tc_size(header),
                BROADCAST,
                ttl=packet.ttl - 1,
                jitter_s=cfg.broadcast_jitter_s,
            )

    # -- HNA --------------------------------------------------------------------------

    def _send_hna(self) -> None:
        self._msg_seq += 1
        header = HnaHeader(
            orig=self.address,
            seq=self._msg_seq,
            networks=tuple(self.config.gateway_for),
        )
        self.send_control(
            HNA,
            header,
            _hna_size(header),
            BROADCAST,
            ttl=255,
            jitter_s=self.config.broadcast_jitter_s,
        )

    def _recv_hna(self, packet: Packet, prev_hop: int) -> None:
        cfg = self.config
        now = self.sim.now
        header: HnaHeader = packet.header
        if header.orig == self.address:
            return
        key = (header.orig, header.seq)
        if key in self._dups:
            return
        self._dups[key] = now + 2 * self.hna_hold_s
        link = self._links.get(prev_hop)
        if link is None or link.sym_until <= now:
            return
        for network in header.networks:
            self._hna.setdefault(network, {})[header.orig] = (
                now + self.hna_hold_s
            )
        # HNA floods through the MPR backbone exactly like TC.
        if prev_hop in self._mpr_selectors and packet.ttl > 1:
            self.send_control(
                HNA,
                header,
                _hna_size(header),
                BROADCAST,
                ttl=packet.ttl - 1,
                jitter_s=cfg.broadcast_jitter_s,
            )

    @property
    def hna_hold_s(self) -> float:
        """Validity of HNA-learned gateway associations."""
        return self.config.hold_multiplier * self.config.hna_interval_s

    def _hna_route(self, dst: int) -> Optional[Tuple[int, int]]:
        """Route towards the nearest gateway advertising ``dst``."""
        now = self.sim.now
        gateways = self._hna.get(dst)
        if not gateways:
            return None
        best: Optional[Tuple[int, int]] = None
        for gateway, until in gateways.items():
            if until <= now:
                continue
            route = self._route_for(gateway)
            if route is not None and (best is None or route[1] < best[1]):
                best = route
        return best

    def hna_gateways(self, dst: int) -> Dict[int, float]:
        """Currently known gateways for an external destination (copy)."""
        now = self.sim.now
        return {
            gw: until
            for gw, until in self._hna.get(dst, {}).items()
            if until > now
        }

    # -- MPR selection -------------------------------------------------------------------

    def _select_mprs(self) -> None:
        now = self.sim.now
        sym = {
            nbr
            for nbr, link in self._links.items()
            if link.sym_until > now
        }
        coverage: Dict[int, Set[int]] = {nbr: set() for nbr in sym}
        uncovered: Set[int] = set()
        for (nbr, n2), (until, _cost) in self._two_hop.items():
            if until <= now or nbr not in sym:
                continue
            if n2 in sym or n2 == self.address:
                continue
            coverage[nbr].add(n2)
            uncovered.add(n2)
        mprs: Set[int] = set()
        # First: neighbours that are the only path to some two-hop node.
        for n2 in list(uncovered):
            providers = [nbr for nbr in sym if n2 in coverage[nbr]]
            if len(providers) == 1:
                mprs.add(providers[0])
        for nbr in mprs:
            uncovered -= coverage[nbr]
        # Then: greedy by residual coverage (ties to lower id: determinism).
        while uncovered:
            best = max(
                sym - mprs,
                key=lambda nbr: (len(coverage[nbr] & uncovered), -nbr),
                default=None,
            )
            if best is None or not coverage[best] & uncovered:
                break  # leftover two-hop nodes are unreachable right now
            mprs.add(best)
            uncovered -= coverage[best]
        self._mprs = mprs

    # -- routing table ----------------------------------------------------------------------

    def _route_for(self, dst: int) -> Optional[Tuple[int, int]]:
        if self._dirty:
            self._recompute_routes()
        return self._routes.get(dst)

    def _recompute_routes(self) -> None:
        now = self.sim.now
        graph: Dict[int, Dict[int, float]] = collections.defaultdict(dict)
        me = self.address
        for nbr, link in self._links.items():
            if link.sym_until > now:
                graph[me][nbr] = self._link_cost(nbr)
        for (nbr, n2), (until, cost) in self._two_hop.items():
            if until > now and nbr in graph[me]:
                graph[nbr].setdefault(n2, cost)
        for (dst, last_hop), (until, cost) in self._topology.items():
            if until > now:
                # TC links are bidirectional between MPR and selector.
                graph[last_hop].setdefault(dst, cost)
                graph[dst].setdefault(last_hop, cost)
        # Dijkstra with hop counting for the route table.
        dist: Dict[int, float] = {me: 0.0}
        hops: Dict[int, int] = {me: 0}
        first_hop: Dict[int, int] = {}
        heap = [(0.0, me)]
        visited: Set[int] = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in visited:
                continue
            visited.add(u)
            for v, cost in graph.get(u, {}).items():
                nd = d + cost
                if nd < dist.get(v, float("inf")) - 1e-12:
                    dist[v] = nd
                    hops[v] = hops[u] + 1
                    first_hop[v] = v if u == me else first_hop[u]
                    heapq.heappush(heap, (nd, v))
        self._routes = {
            dst: (first_hop[dst], hops[dst])
            for dst in dist
            if dst != me and dst in first_hop
        }
        self._dirty = False

    def routing_table(self) -> Dict[int, Tuple[int, int]]:
        """Snapshot of the computed routes: dst -> (next_hop, hops)."""
        if self._dirty:
            self._recompute_routes()
        return dict(self._routes)

    @property
    def mprs(self) -> Set[int]:
        """The currently selected multi-point relays."""
        return set(self._mprs)

    # -- metrics helpers ------------------------------------------------------------------------

    def _reception_ratio(self, nbr: int) -> float:
        """NI(i): fraction of expected HELLOs recently received from nbr."""
        cfg = self.config
        arrivals = self._hello_rx.get(nbr)
        if not arrivals:
            return 0.0
        window_start = self.sim.now - cfg.etx_window * cfg.hello_interval_s
        received = sum(1 for t in arrivals if t >= window_start)
        return min(received / cfg.etx_window, 1.0)

    def _link_cost(self, nbr: int) -> float:
        if self.config.metric != "etx":
            return 1.0
        link = self._links.get(nbr)
        lqi = link.lqi if link is not None else 1.0
        ni = self._reception_ratio(nbr)
        return 1.0 / max(ni * lqi, _ETX_FLOOR)

    # -- maintenance -------------------------------------------------------------------------------

    def _maintenance(self) -> None:
        now = self.sim.now
        for nbr in [
            n for n, link in self._links.items() if link.heard_until <= now
        ]:
            del self._links[nbr]
            self._hello_rx.pop(nbr, None)
            self._dirty = True
        for key in [k for k, (until, _) in self._two_hop.items() if until <= now]:
            del self._two_hop[key]
            self._dirty = True
        for nbr in [
            n for n, until in self._mpr_selectors.items() if until <= now
        ]:
            del self._mpr_selectors[nbr]
        for key in [
            k for k, (until, _) in self._topology.items() if until <= now
        ]:
            del self._topology[key]
            self._dirty = True
        self._dups = {k: u for k, u in self._dups.items() if u > now}
        for network in list(self._hna):
            gateways = {
                gw: until
                for gw, until in self._hna[network].items()
                if until > now
            }
            if gateways:
                self._hna[network] = gateways
            else:
                del self._hna[network]
