"""AODV behaviour tests on static chain topologies."""

import pytest

from repro.routing.aodv import Aodv, AodvConfig

from helpers import TestNetwork, chain_coords
from reactive_cases import (  # noqa: F401  (collected here for AODV)
    test_buffer_overflow_drops_oldest,
    test_reset_state_drops_buffer_and_cancels_discoveries,
    test_ttl_expiry_drops_data,
)


@pytest.fixture
def protocol():
    return "AODV"


def _chain(n, **kwargs):
    network = TestNetwork(chain_coords(n), protocol="AODV", **kwargs)
    network.start_routing()
    return network


def test_route_discovery_three_hops():
    network = _chain(4)
    packet = network.nodes[0].originate_data(3, 512, flow_id=1, seq=1)
    network.run(until=5.0)
    assert packet.uid in network.delivered_uids()
    delivered = network.metrics.delivered[0]
    assert delivered.hops == 3


def test_control_traffic_recorded():
    network = _chain(4)
    network.nodes[0].originate_data(3, 512, flow_id=1, seq=1)
    network.run(until=5.0)
    kinds = {t.kind for t in network.metrics.control_transmissions()}
    assert "AODV_RREQ" in kinds
    assert "AODV_RREP" in kinds


def test_buffered_packets_flushed_after_discovery():
    network = _chain(4)
    packets = [
        network.nodes[0].originate_data(3, 512, flow_id=1, seq=i)
        for i in range(5)
    ]
    network.run(until=5.0)
    assert {p.uid for p in packets} <= network.delivered_uids()


def test_forward_route_installed_at_intermediates():
    network = _chain(4)
    network.nodes[0].originate_data(3, 512, flow_id=1, seq=1)
    network.run(until=5.0)
    aodv_1: Aodv = network.nodes[1].routing
    entry = aodv_1.table.lookup(3, network.sim.now)
    assert entry is not None
    assert entry.next_hop == 2
    # Reverse route towards the originator too.
    reverse = aodv_1.table.lookup(0, network.sim.now)
    assert reverse is not None
    assert reverse.next_hop == 0


def test_second_flow_reuses_route_without_new_rreq():
    network = _chain(4)
    network.nodes[0].originate_data(3, 512, flow_id=1, seq=1)
    network.run(until=3.0)
    rreqs_before = sum(
        1
        for t in network.metrics.control_transmissions()
        if t.kind == "AODV_RREQ"
    )
    network.nodes[0].originate_data(3, 512, flow_id=1, seq=2)
    network.run(until=4.0)
    rreqs_after = sum(
        1
        for t in network.metrics.control_transmissions()
        if t.kind == "AODV_RREQ"
    )
    assert rreqs_after == rreqs_before


def test_partitioned_destination_dropped_after_retries():
    coords = chain_coords(3) + [(5000.0, 0.0)]  # node 3 unreachable
    network = TestNetwork(coords, protocol="AODV")
    network.start_routing()
    packet = network.nodes[0].originate_data(3, 512, flow_id=1, seq=1)
    network.run(until=30.0)
    assert packet.uid not in network.delivered_uids()
    rreqs = [
        t
        for t in network.metrics.control_transmissions()
        if t.kind == "AODV_RREQ" and t.node == 0
    ]
    assert len(rreqs) == AodvConfig().max_discovery_attempts == 3
    assert network.metrics.drops.get("no_route", 0) == 1


def test_link_break_triggers_rerr_and_rediscovery():
    network = _chain(5)
    network.nodes[0].originate_data(4, 512, flow_id=1, seq=1)
    network.run(until=3.0)
    assert len(network.metrics.delivered) == 1
    # Partition the chain: node 2 leaves entirely.
    network.positions.move(2, 5000.0, 5000.0)
    network.run(until=6.0)
    network.nodes[0].originate_data(4, 512, flow_id=1, seq=2)
    network.run(until=16.0)
    kinds = [t.kind for t in network.metrics.control_transmissions()]
    assert "AODV_RERR" in kinds
    assert len(network.metrics.delivered) == 1  # seq=2 had no path
    # The relay returns.  Wait past the failing discovery's final timeout
    # (its last RREQ went out while the network was still partitioned),
    # then a fresh discovery must deliver again.
    network.positions.move(2, 400.0, 0.0)
    network.run(until=27.0)
    network.nodes[0].originate_data(4, 512, flow_id=1, seq=3)
    network.run(until=35.0)
    assert len(network.metrics.delivered) == 2


def test_hello_messages_flow():
    network = _chain(2)
    network.run(until=5.0)
    hellos = [
        t
        for t in network.metrics.control_transmissions()
        if t.kind == "AODV_HELLO"
    ]
    assert len(hellos) >= 8  # two nodes, ~1/s each


def test_config_derived_times():
    config = AodvConfig()
    assert config.net_traversal_time_s == pytest.approx(2.8)
    assert config.path_discovery_time_s == pytest.approx(5.6)
    assert config.neighbor_lifetime_s == pytest.approx(2.0)
