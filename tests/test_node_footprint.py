"""Per-vehicle state is allocated on first use.

On a highway most vehicles only exchange AODV HELLOs: they never receive
a unicast DATA frame, and nobody routes through most of their route
entries.  Such a vehicle holds no MAC duplicate cache and no precursor
sets, and every agent shares one default protocol configuration.  These
tests check the structure only (which objects exist), never byte counts,
so they hold on every Python version.
"""

import dataclasses

import pytest

from repro.core.config import Scenario
from repro.core.simulation import CavenetSimulation
from repro.mac.dcf import Mac80211
from repro.mac.frames import FrameType
from repro.routing import PROTOCOLS

from helpers import TestNetwork, chain_coords

HIGHWAY = Scenario(
    num_nodes=300,
    road_length_m=100.0 * 300,
    boundary="circuit",
    initial_placement="random",
    mobility_warmup_steps=200,
    sim_time_s=2.0,
    protocol="AODV",
    senders=(1, 2),
    receiver=0,
    traffic_start_s=0.5,
    traffic_stop_s=1.5,
    spatial="grid",
    seed=11,
)


class _KeepNodes(CavenetSimulation):
    """A simulation that keeps its nodes for inspection after the run."""

    def build_nodes(self, *args):
        self.nodes = super().build_nodes(*args)
        return self.nodes


@pytest.fixture(scope="module")
def highway():
    """The finished highway's nodes, and the addresses of the MACs that
    received a unicast DATA frame addressed to them."""
    addressed = set()
    original = Mac80211.on_frame_received

    def on_frame_received(mac, frame, rx_power_w):
        if frame.frame_type is FrameType.DATA and frame.rx_addr == mac.address:
            addressed.add(mac.address)
        original(mac, frame, rx_power_w)

    Mac80211.on_frame_received = on_frame_received
    try:
        simulation = _KeepNodes(HIGHWAY)
        simulation.run()
    finally:
        Mac80211.on_frame_received = original
    return simulation.nodes, addressed


def test_only_macs_addressed_by_unicast_data_hold_a_duplicate_cache(highway):
    nodes, addressed = highway
    holders = {n.node_id for n in nodes if n.mac._dup_cache is not None}
    assert holders == addressed
    assert 0 < len(holders) < len(nodes) // 10


def test_route_entries_without_precursors_hold_no_set(highway):
    nodes, _ = highway
    entries = [
        entry
        for node in nodes
        for entry in node.routing.table._entries.values()
    ]
    without = [e for e in entries if e.precursors is None]
    assert all(e.precursors for e in entries if e.precursors is not None)
    assert 0 < len(entries) - len(without) < len(without)


def test_highway_agents_share_one_config(highway):
    nodes, _ = highway
    assert len({id(node.routing.config) for node in nodes}) == 1


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_default_config_is_shared_and_frozen(protocol):
    network = TestNetwork(chain_coords(3), protocol=protocol)
    first, second, third = (node.routing.config for node in network.nodes)
    assert first is second is third
    field = dataclasses.fields(first)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(first, field, getattr(first, field))
