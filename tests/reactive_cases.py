"""Behaviour AODV and DYMO share, written once for both protocols.

Each test here takes a ``protocol`` fixture ("AODV" or "DYMO").  The
protocol modules ``test_routing_aodv.py``, ``test_routing_aodv_rerr.py``
and ``test_routing_dymo.py`` import the tests they cover and define
``protocol`` for their protocol, so pytest collects every case once per
protocol under that module's name.  This module is not collected itself.
"""

from repro.net.packet import Packet
from repro.routing.aodv import RerrHeader

from helpers import TestNetwork, chain_coords


def _network(protocol, coords):
    network = TestNetwork(coords, protocol=protocol)
    network.start_routing()
    return network


def test_buffer_overflow_drops_oldest(protocol):
    network = _network(protocol, chain_coords(2) + [(9000.0, 0.0)])
    for i in range(70):  # buffer capacity is 64
        network.nodes[0].originate_data(2, 512, flow_id=1, seq=i)
    network.run(until=0.5)
    assert network.metrics.drops.get("buffer_overflow", 0) >= 6


def test_ttl_expiry_drops_data(protocol):
    network = _network(protocol, chain_coords(3))
    # Forge a data packet with a tiny TTL by sending through routing after
    # discovery.
    network.nodes[0].originate_data(2, 512, flow_id=1, seq=1)
    network.run(until=3.0)
    doomed = Packet("DATA", 0, 2, 512, network.sim.now, ttl=1)
    network.nodes[1].routing.forward_data(doomed, prev_hop=0)
    assert network.metrics.drops.get("ttl_expired", 0) == 1


def test_link_break_flushes_mac_queue(protocol):
    network = _network(protocol, chain_coords(2))
    node = network.nodes[0]
    agent = node.routing
    now = network.sim.now
    agent.table.update(1, next_hop=1, hops=1, seq=2, lifetime=100.0, now=now)
    # Stuff the MAC queue with data to node 1.
    for seq in range(10):
        node.originate_data(1, 1500, flow_id=1, seq=seq)
    assert len(node.mac.queue) > 0
    agent._handle_link_break(1)
    assert len(node.mac.queue) == 0


def _rerr(protocol, now, unreachable):
    """A RERR from node 1 announcing ``unreachable`` (dst, seq) pairs."""
    return Packet(
        f"{protocol}_RERR", 1, -1, 20, now,
        header=RerrHeader(unreachable=unreachable),
    )


def test_rerr_invalidates_only_routes_via_sender(protocol):
    network = _network(protocol, chain_coords(3))
    agent = network.nodes[0].routing
    now = network.sim.now
    agent.table.update(5, next_hop=1, hops=2, seq=4, lifetime=100.0, now=now)
    agent.table.update(6, next_hop=2, hops=2, seq=4, lifetime=100.0, now=now)
    agent._recv_rerr(_rerr(protocol, now, ((5, 5), (6, 5))), prev_hop=1)
    assert agent.table.lookup(5, now) is None  # via the RERR sender: dead
    assert agent.table.lookup(6, now) is not None  # via node 2: untouched


def test_rerr_not_propagated_when_nothing_invalidated(protocol):
    network = _network(protocol, chain_coords(3))
    agent = network.nodes[0].routing
    now = network.sim.now
    before = len(network.metrics.transmissions)
    agent._recv_rerr(_rerr(protocol, now, ((77, 5),)), prev_hop=1)
    network.run(until=network.sim.now + 0.1)
    kinds = [
        t.kind for t in network.metrics.transmissions[before:] if t.node == 0
    ]
    assert f"{protocol}_RERR" not in kinds


def test_reset_state_drops_buffer_and_cancels_discoveries(protocol):
    """A crash wipe drops every buffered packet as ``node_down`` and
    cancels each pending discovery's timeout, but keeps the sequence
    number."""
    far = [(9000.0, 0.0), (9000.0, 9000.0)]
    network = _network(protocol, chain_coords(2) + far)
    agent = network.nodes[0].routing
    for dst, count in ((2, 2), (3, 1)):
        for seq in range(count):
            network.nodes[0].originate_data(dst, 512, flow_id=dst, seq=seq)
    network.run(until=0.5)  # RREQs out, first timeouts still pending
    pending = network.sim.pending_events
    seq = agent._seq
    agent.reset_state()
    assert network.metrics.drops == {"node_down": 3}
    assert network.sim.pending_events == pending - 2
    assert agent._seq == seq
    network.run(until=30.0)  # no discovery retries or gives up later
    assert network.metrics.drops == {"node_down": 3}
