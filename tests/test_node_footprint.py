"""Per-vehicle state is allocated on first use, and kept compact.

On a highway most vehicles only exchange AODV HELLOs: they never receive
a unicast DATA frame, and nobody routes through most of their route
entries.  Such a vehicle holds no MAC duplicate cache and no precursor
sets, and every agent shares one default protocol configuration.  Its
stack objects are slotted (no instance ``__dict__``), and its random
streams hold no seed sequence of their own.  These tests check the
structure only (which objects exist), never byte counts, so they hold
on every Python version.
"""

import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import Scenario
from repro.core.simulation import CavenetSimulation
from repro.mac.dcf import Mac80211
from repro.mac.frames import FrameType
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.routing import PROTOCOLS
from repro.util.rng import RngStreams, _no_spawn_seed

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


def _stack_objects(node):
    """One vehicle's slotted objects: stack, AODV agent, table, timers."""
    agent = node.routing
    yield from (node, node.radio, node.mac, node.mac.stats, node.mac.queue)
    yield from (agent, agent.table, agent._hello_timer)
    yield agent._maintenance_timer
    yield from agent.table._entries.values()


def test_highway_stack_objects_hold_no_instance_dict(highway):
    nodes, _ = highway
    objects = [obj for node in nodes for obj in _stack_objects(node)]
    assert {type(obj).__name__ for obj in objects} == {
        "Node", "Radio", "Mac80211", "MacStats", "DropTailQueue", "Aodv",
        "RouteTable", "PeriodicTimer", "RouteEntry",
    }
    assert not [obj for obj in objects if hasattr(obj, "__dict__")]


def test_highway_streams_share_one_seed_sentinel(highway):
    nodes, _ = highway
    streams = [node.mac._rng for node in nodes]
    streams += [node.routing.rng for node in nodes]
    assert len({id(stream) for stream in streams}) == 2 * len(nodes)
    sentinel = _no_spawn_seed()
    assert all(s.bit_generator.seed_seq is sentinel for s in streams)
    with pytest.raises(TypeError):
        streams[0].spawn(1)
    restored = pickle.loads(pickle.dumps(streams[0]))
    assert restored.bit_generator.seed_seq is sentinel


def test_rng_streams_spawn_still_derives_distinct_children():
    parent = RngStreams(11)
    first, second = parent.spawn("trial"), parent.spawn("trial")
    assert first.seed != second.seed
    draws = [child.stream("mac-0").random(4) for child in (first, second)]
    assert not np.array_equal(*draws)


#: Modules a default (AODV, single-lane, CBR) trial never runs: the other
#: protocols, the routing audit, the journal, the other CA and mobility
#: models, Poisson traffic, the trace writer and the analysis metrics.
_UNUSED_BY_ONE_TRIAL = sorted(
    f"repro.{name}" for name in (
        "routing.olsr", "routing.dymo", "routing.dsdv", "routing.flooding",
        "routing.audit", "core.journal", "ca.multilane", "ca.intersection",
        "ca.history", "mobility.freeway", "mobility.random_waypoint",
        "traffic.poisson", "metrics.tracefile", "metrics.delay",
        "metrics.goodput", "metrics.overhead", "metrics.pdr",
        "metrics.resilience",
    )
)


def test_one_trial_loads_no_queue_machinery():
    """A process imports only the components it uses.  The set-up
    imports (as perfbench times them) and ``Scenario()`` load none of
    the unused modules, nor ``hashlib`` (the journal's); resolving a
    scenario's backend name imports neither the claim-file queue nor
    ``multiprocessing``; nothing but a first stream imports
    ``numpy.random`` (a campaign's scheduler draws none), which itself
    brings ``hashlib`` in, so the check after the trial leaves it out."""
    code = (
        "import json, sys\n"
        "unused = set(json.loads(sys.argv[1]))\n"
        "def loaded(names):\n"
        "    print(json.dumps(sorted(set(names) & set(sys.modules))))\n"
        "import repro.core.simulation, repro.core.runner\n"
        "from repro.kernels import resolve_backend\n"
        "resolve_backend('auto')\n"
        "loaded(unused | {'hashlib'})\n"
        "from repro.core.config import Scenario\n"
        "from repro.core.simulation import CavenetSimulation\n"
        "Scenario()\n"
        "loaded(unused | {'hashlib', 'numpy.random'})\n"
        "CavenetSimulation(Scenario(num_nodes=10, road_length_m=1000.0, "
        "sim_time_s=2.0, senders=(1, 2), traffic_start_s=0.5, "
        "traffic_stop_s=1.5)).run()\n"
        "loaded(unused | {'repro.core.distq', 'multiprocessing'})\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(_UNUSED_BY_ONE_TRIAL)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, check=True,
    )
    after_setup, after_scenario, after_trial = map(
        json.loads, proc.stdout.splitlines()
    )
    assert after_setup == []
    assert after_scenario == []
    assert after_trial == []


class _PickledBeforeSlots:
    """Pickles the way an object did while its class had a ``__dict__``,
    its attributes named as in ``old_names`` (current -> former)."""

    def __init__(self, obj, old_names=None):
        self.cls = type(obj)
        names = old_names or {}
        self.state = {
            names.get(name, name): value
            for name, value in _slot_values(obj).items()
        }

    def __reduce__(self):
        return (object.__new__, (self.cls,), self.state)


def _slot_values(obj):
    return {
        name: getattr(obj, name)
        for cls in type(obj).__mro__
        for name in getattr(cls, "__slots__", ())
    }


def _agent_data(agent):
    """A routing agent's learned state, comparable across a pickle."""
    return (
        agent.config, agent._seq, agent._msg_id, agent._seen,
        agent._neighbors,
        {dst: (e.next_hop, e.hops, e.seq, e.valid)
         for dst, e in agent.table._entries.items()},
    )


def test_slotted_object_unpickles_slot_and_dict_state():
    packet = Packet("DATA", 1, 2, 512, 0.5, flow_id=7, seq=3)
    queue = DropTailQueue(3)
    queue.enqueue(packet, 1)
    queue.drops = 2
    for obj in (queue, packet):
        for payload in (pickle.dumps(obj), pickle.dumps(_PickledBeforeSlots(obj))):
            restored = pickle.loads(payload)
            assert type(restored) is type(obj)
            assert not hasattr(restored, "__dict__")
            assert _slot_values(restored) == _slot_values(obj)
    # Reactive agents, also as pickled before the shared core, when AODV
    # named its message id and duplicate cache ``_rreq_id``/``_seen_rreqs``.
    for protocol, old_names in (
        ("AODV", {"_msg_id": "_rreq_id", "_seen": "_seen_rreqs"}),
        ("DYMO", {}),
    ):
        network = TestNetwork(chain_coords(3), protocol=protocol)
        network.start_routing()
        network.nodes[0].originate_data(2, 512, flow_id=1, seq=1)
        network.run(until=3.0)
        agent = network.nodes[1].routing
        assert agent._seen and agent.table._entries
        for payload in (
            pickle.dumps(agent),
            pickle.dumps(_PickledBeforeSlots(agent, old_names)),
        ):
            restored = pickle.loads(payload)
            assert type(restored) is type(agent)
            assert not hasattr(restored, "__dict__")
            assert _agent_data(restored) == _agent_data(agent)
