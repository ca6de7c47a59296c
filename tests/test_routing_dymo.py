"""DYMO behaviour tests, especially path accumulation."""

import pytest

from repro.routing.dymo import Dymo, DymoConfig

from helpers import TestNetwork, chain_coords
from reactive_cases import (  # noqa: F401  (collected here for DYMO)
    test_buffer_overflow_drops_oldest,
    test_link_break_flushes_mac_queue,
    test_reset_state_drops_buffer_and_cancels_discoveries,
    test_rerr_invalidates_only_routes_via_sender,
    test_rerr_not_propagated_when_nothing_invalidated,
    test_ttl_expiry_drops_data,
)


@pytest.fixture
def protocol():
    return "DYMO"


def _chain(n, **kwargs):
    network = TestNetwork(chain_coords(n), protocol="DYMO", **kwargs)
    network.start_routing()
    return network


def test_route_discovery_and_delivery():
    network = _chain(4)
    packet = network.nodes[0].originate_data(3, 512, flow_id=1, seq=1)
    network.run(until=5.0)
    assert packet.uid in network.delivered_uids()


def test_path_accumulation_installs_intermediate_routes():
    """The DYMO difference (paper III-B.3): after one discovery 0 -> 3,
    intermediate nodes know routes to ALL nodes on the path, and the
    originator knows every intermediate hop — AODV would only know the
    destination and the next hop."""
    network = _chain(4)
    network.nodes[0].originate_data(3, 512, flow_id=1, seq=1)
    network.run(until=5.0)
    now = network.sim.now
    dymo_2: Dymo = network.nodes[2].routing
    # Node 2 saw the RREQ with path [0, 1]: routes to both.
    assert dymo_2.table.lookup(0, now) is not None
    assert dymo_2.table.lookup(1, now) is not None
    # The originator learned intermediate hops from the RREP path.
    dymo_0: Dymo = network.nodes[0].routing
    assert dymo_0.table.lookup(3, now) is not None
    assert dymo_0.table.lookup(2, now) is not None


def test_hop_counts_from_path_position():
    network = _chain(4)
    network.nodes[0].originate_data(3, 512, flow_id=1, seq=1)
    network.run(until=5.0)
    now = network.sim.now
    dymo_3: Dymo = network.nodes[3].routing
    entry_0 = dymo_3.table.lookup(0, now)
    entry_2 = dymo_3.table.lookup(2, now)
    assert entry_0.hops == 3
    assert entry_2.hops == 1


def test_only_target_replies():
    """No intermediate RREPs in DYMO: one discovery yields RREPs only from
    the target side (forwarded hop by hop)."""
    network = _chain(4)
    network.nodes[0].originate_data(3, 512, flow_id=1, seq=1)
    network.run(until=5.0)
    rreps = [
        t
        for t in network.metrics.control_transmissions()
        if t.kind == "DYMO_RREP"
    ]
    # Exactly one RREP per hop of the reverse path: 3 transmissions.
    assert len(rreps) == 3
    assert {t.node for t in rreps} == {3, 2, 1}


def test_rerr_floods_on_break():
    network = _chain(4)
    network.nodes[0].originate_data(3, 512, flow_id=1, seq=1)
    network.run(until=3.0)
    network.positions.move(2, 8000.0, 8000.0)
    network.nodes[0].originate_data(3, 512, flow_id=1, seq=2)
    network.run(until=10.0)
    kinds = [t.kind for t in network.metrics.control_transmissions()]
    assert "DYMO_RERR" in kinds


def test_buffered_packets_flushed():
    network = _chain(4)
    packets = [
        network.nodes[0].originate_data(3, 512, flow_id=1, seq=i)
        for i in range(6)
    ]
    network.run(until=5.0)
    assert {p.uid for p in packets} <= network.delivered_uids()


def test_partitioned_target_drops_after_retries():
    coords = chain_coords(2) + [(9000.0, 0.0)]
    network = TestNetwork(coords, protocol="DYMO")
    network.start_routing()
    packet = network.nodes[0].originate_data(2, 512, flow_id=1, seq=1)
    network.run(until=30.0)
    assert packet.uid not in network.delivered_uids()
    rreqs = [
        t
        for t in network.metrics.control_transmissions()
        if t.kind == "DYMO_RREQ" and t.node == 0
    ]
    assert len(rreqs) == 3  # the first RREQ and rreq_retries (2) retries
    assert network.metrics.drops.get("no_route", 0) == 1


def test_seq_numbers_monotone_per_node():
    network = _chain(3)
    dymo: Dymo = network.nodes[0].routing
    before = dymo._seq
    network.nodes[0].originate_data(2, 512, flow_id=1, seq=1)
    network.run(until=5.0)
    assert dymo._seq > before


def test_duplicate_rreq_not_reprocessed():
    network = _chain(4)
    network.nodes[0].originate_data(3, 512, flow_id=1, seq=1)
    network.run(until=5.0)
    rreqs = [
        t
        for t in network.metrics.control_transmissions()
        if t.kind == "DYMO_RREQ"
    ]
    # Each of the 4 nodes transmits the flood at most once (the target
    # replies instead of forwarding).
    assert len(rreqs) <= 3


def test_hello_interval_per_table1():
    assert DymoConfig().hello_interval_s == 1.0


def test_neighbor_lifetime():
    config = DymoConfig(hello_interval_s=2.0, allowed_hello_loss=3)
    assert config.neighbor_lifetime_s == pytest.approx(6.0)
