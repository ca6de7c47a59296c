"""Traffic-source (CBR, Poisson on/off) and sink tests."""

import pickle

import numpy as np
import pytest

from repro.des.engine import Simulator
from repro.net.packet import Packet
from repro.traffic.base import TrafficSource
from repro.traffic.cbr import CbrSource
from repro.traffic.poisson import PoissonOnOffSource
from repro.traffic.sink import Reception, Sink

from helpers import TestNetwork, chain_coords


def _pair():
    network = TestNetwork(chain_coords(2), protocol="AODV")
    network.start_routing()
    return network


def test_cbr_emits_at_configured_rate():
    network = _pair()
    source = CbrSource(
        network.nodes[0], 1, rate_pps=5.0, size_bytes=512,
        start_s=1.0, stop_s=5.0, flow_id=7,
    )
    source.start()
    network.run(until=10.0)
    # Emissions at 1.0, 1.2, ... , 4.8: exactly 20 packets.
    assert source.packets_sent == 20
    assert network.metrics.num_originated == 20


def test_cbr_table1_shape():
    """Table I: 5 pkt/s x 512 B between 10 s and 90 s = 400 packets."""
    network = _pair()
    source = CbrSource(network.nodes[0], 1, flow_id=7)
    source.start()
    network.run(until=100.0)
    assert source.packets_sent == 400


def test_cbr_jitter_shifts_start_only():
    import numpy as np

    network = _pair()
    source = CbrSource(
        network.nodes[0], 1, rate_pps=2.0, start_s=1.0, stop_s=4.0,
        jitter_s=0.1, rng=np.random.default_rng(0), flow_id=7,
    )
    source.start()
    network.run(until=5.0)
    times = [e.time for e in network.metrics.originated]
    gaps = np.diff(times)
    assert np.allclose(gaps, 0.5)
    assert 1.0 <= times[0] < 1.1


def test_cbr_stop_cancels():
    network = _pair()
    source = CbrSource(
        network.nodes[0], 1, rate_pps=5.0, start_s=1.0, stop_s=9.0, flow_id=7
    )
    source.start()
    network.run(until=2.0)
    source.stop()
    sent_at_stop = source.packets_sent
    network.run(until=9.0)
    assert source.packets_sent == sent_at_stop


def test_cbr_double_start_rejected():
    network = _pair()
    source = CbrSource(network.nodes[0], 1, flow_id=7)
    source.start()
    with pytest.raises(RuntimeError):
        source.start()


def test_cbr_validation():
    network = _pair()
    with pytest.raises(ValueError):
        CbrSource(network.nodes[0], 1, rate_pps=0.0)
    with pytest.raises(ValueError):
        CbrSource(network.nodes[0], 1, size_bytes=0)
    with pytest.raises(ValueError):
        CbrSource(network.nodes[0], 1, start_s=10.0, stop_s=5.0)
    with pytest.raises(ValueError):
        CbrSource(network.nodes[0], 1, jitter_s=-0.1)


def test_sink_records_receptions():
    network = _pair()
    sink = Sink(network.nodes[1])
    source = CbrSource(
        network.nodes[0], 1, rate_pps=5.0, start_s=1.0, stop_s=3.0, flow_id=7
    )
    source.start()
    network.run(until=5.0)
    assert len(sink.receptions) == 10
    assert sink.received_seqs(7) == list(range(1, 11))
    assert sink.missing_seqs(7, source.packets_sent) == []
    assert all(r.delay_s > 0 for r in sink.receptions)


def test_sink_missing_seqs_detects_loss():
    network = _pair()
    sink = Sink(network.nodes[1])
    # No traffic: everything "missing".
    assert sink.missing_seqs(7, 3) == [1, 2, 3]
    assert sink.flow_receptions(7) == []


class _SinkNode:
    """Just what a sink reads of its node: the clock and the hook."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.deliver = None

    def add_sink(self, callback) -> None:
        self.deliver = callback


def test_sink_columns_answer_like_the_record_lists():
    """Mixed flows, a flow-less packet, a seq-less packet and a
    duplicate: every accessor equals the record-at-a-time reference."""
    node = _SinkNode()
    sink = Sink(node)
    arrivals = [  # (time, flow_id, seq, size, created_at, hops)
        (1.0, 1, 1, 512, 0.5, 2), (1.5, 2, 1, 256, 1.0, 0),
        (2.0, 1, 3, 512, 1.25, 1), (2.5, None, None, 64, 2.0, 0),
        (3.0, 1, 3, 512, 1.25, 3), (3.5, 2, None, 256, 3.0, 1),
    ]
    reference = []
    for time, flow_id, seq, size, created_at, hops in arrivals:
        packet = Packet("DATA", 0, 1, size, created_at, flow_id=flow_id,
                        seq=seq)
        packet.hops = hops
        node.sim.schedule_at(time, node.deliver, packet, 0)
        reference.append(
            Reception(flow_id, seq, time, size, time - created_at, hops)
        )
    node.sim.run()
    sink.detach()
    clone = pickle.loads(pickle.dumps(sink))
    for view in (sink, clone):
        assert view.receptions == reference
        assert list(view.receptions) == reference
        for flow_id in (1, 2, None, 9):
            got = [r for r in reference if r.flow_id == flow_id]
            assert view.flow_receptions(flow_id) == got
            assert view.received_seqs(flow_id) == [
                r.seq for r in got if r.seq is not None
            ]
        assert view.missing_seqs(1, 4) == [2, 4]
    assert clone._node is None


# -- Poisson on/off source ----------------------------------------------------


def test_sources_share_the_trafficsource_interface():
    assert issubclass(CbrSource, TrafficSource)
    assert issubclass(PoissonOnOffSource, TrafficSource)


def _poisson(network, **kwargs):
    defaults = dict(
        rate_pps=20.0, start_s=1.0, stop_s=9.0, flow_id=7,
        rng=np.random.default_rng(5),
    )
    defaults.update(kwargs)
    return PoissonOnOffSource(network.nodes[0], 1, **defaults)


def test_poisson_emits_within_window_only():
    network = _pair()
    source = _poisson(network)
    source.start()
    network.run(until=12.0)
    times = [e.time for e in network.metrics.originated]
    assert source.packets_sent == len(times) > 0
    assert all(1.0 <= t < 9.0 for t in times)


def test_poisson_always_on_approximates_rate():
    """With off_mean_s=0 the source is a plain Poisson process: over an
    8 s window at 20 pps, the count concentrates around 160."""
    network = _pair()
    source = _poisson(network, off_mean_s=0.0, on_mean_s=1000.0)
    source.start()
    network.run(until=10.0)
    assert 100 < source.packets_sent < 230  # ~5 sigma around 160


def test_poisson_bursts_thin_the_average():
    """Equal on/off means gate roughly half the window off."""
    network = _pair()
    source = _poisson(
        network, on_mean_s=0.5, off_mean_s=0.5,
        rng=np.random.default_rng(11),
    )
    source.start()
    network.run(until=10.0)
    assert 0 < source.packets_sent < 140  # clearly below always-on ~160


def test_poisson_is_reproducible_by_seed():
    counts = []
    for _ in range(2):
        network = _pair()
        source = _poisson(network, rng=np.random.default_rng(42))
        source.start()
        network.run(until=10.0)
        counts.append(source.packets_sent)
    assert counts[0] == counts[1]


def test_poisson_stop_cancels():
    network = _pair()
    source = _poisson(network, off_mean_s=0.0)
    source.start()
    network.run(until=3.0)
    source.stop()
    sent = source.packets_sent
    network.run(until=9.0)
    assert source.packets_sent == sent


def test_poisson_double_start_rejected():
    network = _pair()
    source = _poisson(network)
    source.start()
    with pytest.raises(RuntimeError):
        source.start()


def test_poisson_validation():
    network = _pair()
    with pytest.raises(ValueError):
        _poisson(network, rate_pps=0.0)
    with pytest.raises(ValueError):
        _poisson(network, on_mean_s=0.0)
    with pytest.raises(ValueError):
        _poisson(network, off_mean_s=-1.0)
    with pytest.raises(ValueError):
        _poisson(network, start_s=5.0, stop_s=5.0)
