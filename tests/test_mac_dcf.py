"""802.11 DCF behaviour tests over the real radio/channel substrate."""

import numpy as np
import pytest

from repro.des.engine import Simulator
from repro.mac.dcf import Mac80211
from repro.mac.frames import Frame, FrameType
from repro.mac.params import Mac80211Params
from repro.net.address import BROADCAST
from repro.net.packet import Packet
from repro.phy.channel import Channel
from repro.phy.params import PhyParams
from repro.phy.propagation import TwoRayGround
from repro.phy.radio import Radio


class Upper:
    """Records network-layer callbacks of one MAC."""

    def __init__(self) -> None:
        self.received = []
        self.failures = []

    def on_receive(self, packet, prev_hop):
        self.received.append((packet, prev_hop))

    def on_failure(self, packet, next_hop):
        self.failures.append((packet, next_hop))


def _network(coords, mac_params=None, seed=3):
    sim = Simulator()
    positions = np.asarray(coords, dtype=float)
    channel = Channel(sim, TwoRayGround(), lambda: positions)
    phy = PhyParams.for_ranges(TwoRayGround(), 250.0, 550.0)
    params = mac_params if mac_params is not None else Mac80211Params()
    macs, uppers = [], []
    rng_root = np.random.default_rng(seed)
    for node_id in range(len(coords)):
        radio = Radio(sim, node_id, phy, channel)
        mac = Mac80211(
            sim,
            radio,
            params,
            rng=np.random.default_rng(rng_root.integers(2**31)),
        )
        upper = Upper()
        mac.attach_upper(upper.on_receive, upper.on_failure)
        macs.append(mac)
        uppers.append(upper)
    return sim, macs, uppers


def _packet(src, dst, size=512):
    return Packet("DATA", src, dst, size, 0.0)


def test_unicast_delivered_and_acked():
    sim, macs, uppers = _network([(0, 0), (150, 0)])
    packet = _packet(0, 1)
    macs[0].enqueue(packet, 1)
    sim.run(until=0.1)
    assert [p.uid for p, _ in uppers[1].received] == [packet.uid]
    assert macs[1].stats.ack_tx == 1
    assert macs[0].stats.data_tx == 1
    assert macs[0].stats.retransmissions == 0
    assert uppers[0].failures == []


def test_broadcast_reaches_all_in_range_without_ack():
    sim, macs, uppers = _network([(0, 0), (150, 0), (0, 150), (600, 600)])
    macs[0].enqueue(_packet(0, BROADCAST), BROADCAST)
    sim.run(until=0.1)
    assert len(uppers[1].received) == 1
    assert len(uppers[2].received) == 1
    assert uppers[3].received == []  # out of range
    assert macs[1].stats.ack_tx == 0
    assert macs[0].stats.data_tx == 1  # no retries for broadcast


def test_unreachable_unicast_retries_then_fails():
    sim, macs, uppers = _network([(0, 0), (800, 0)])
    packet = _packet(0, 1)
    macs[0].enqueue(packet, 1)
    sim.run(until=1.0)
    params = Mac80211Params()
    assert macs[0].stats.retransmissions == params.short_retry_limit - 1
    assert macs[0].stats.retry_drops == 1
    assert uppers[0].failures == [(packet, 1)]
    assert uppers[1].received == []


def test_queue_served_in_order():
    sim, macs, uppers = _network([(0, 0), (150, 0)])
    packets = [_packet(0, 1) for _ in range(5)]
    for packet in packets:
        macs[0].enqueue(packet, 1)
    sim.run(until=1.0)
    received_uids = [p.uid for p, _ in uppers[1].received]
    assert received_uids == [p.uid for p in packets]


def test_ifq_overflow_rejected():
    sim, macs, _ = _network([(0, 0), (150, 0)])
    accepted = [macs[0].enqueue(_packet(0, 1), 1) for _ in range(60)]
    # Capacity 50 + 1 being served.
    assert sum(accepted) == 51
    assert macs[0].queue.drops == 9


def test_two_contenders_both_deliver():
    """CSMA/CA resolves contention between two senders to one receiver."""
    sim, macs, uppers = _network([(0, 0), (150, 0), (300, 0)])
    for _ in range(10):
        macs[0].enqueue(_packet(0, 1), 1)
        macs[2].enqueue(_packet(2, 1), 1)
    sim.run(until=2.0)
    from_0 = sum(1 for _, h in uppers[1].received if h == 0)
    from_2 = sum(1 for _, h in uppers[1].received if h == 2)
    assert from_0 == 10
    assert from_2 == 10


def test_hidden_terminals_still_mostly_deliver():
    """Senders 0 and 2 are 460 m apart — within each other's carrier-sense
    range here, but collisions at the shared receiver still occur through
    timing races; retransmissions recover them."""
    sim, macs, uppers = _network([(0, 0), (230, 0), (460, 0)])
    for _ in range(5):
        macs[0].enqueue(_packet(0, 1), 1)
        macs[2].enqueue(_packet(2, 1), 1)
    sim.run(until=5.0)
    total = len(uppers[1].received)
    assert total >= 8  # retries recover nearly everything


def test_rts_cts_exchange_used_when_enabled():
    params = Mac80211Params(rts_threshold_bytes=0)
    sim, macs, uppers = _network([(0, 0), (150, 0)], mac_params=params)
    packet = _packet(0, 1)
    macs[0].enqueue(packet, 1)
    sim.run(until=0.5)
    assert macs[0].stats.rts_tx >= 1
    assert macs[1].stats.cts_tx >= 1
    assert [p.uid for p, _ in uppers[1].received] == [packet.uid]


def test_rts_cts_failure_uses_long_retry_limit():
    params = Mac80211Params(rts_threshold_bytes=0)
    sim, macs, uppers = _network([(0, 0), (800, 0)], mac_params=params)
    macs[0].enqueue(_packet(0, 1), 1)
    sim.run(until=1.0)
    assert macs[0].stats.rts_tx == params.long_retry_limit
    assert uppers[0].failures != []


def test_duplicate_data_suppressed_but_acked():
    sim, macs, uppers = _network([(0, 0), (150, 0)])
    packet = _packet(0, 1)
    frame = Frame(
        FrameType.DATA, 0, 1, 540, duration_s=0.0, packet=packet, seq=42
    )
    macs[1].on_frame_received(frame, 1e-9)
    macs[1].on_frame_received(frame, 1e-9)  # retransmission
    assert len(uppers[1].received) == 1
    assert macs[1].stats.duplicates_suppressed == 1


def test_duplicate_cache_is_built_on_demand_and_evicts_fifo():
    sim, macs, uppers = _network([(0, 0), (150, 0)])
    packet = _packet(0, 1)

    def data(seq, to=1):
        return Frame(
            FrameType.DATA, 0, to, 540, duration_s=0.0, packet=packet,
            seq=seq,
        )

    macs[1].on_frame_received(data(1, to=BROADCAST), 1e-9)
    assert macs[1]._dup_cache is None  # broadcasts never build it
    for seq in range(1, 130):  # one key more than the cache holds
        macs[1].on_frame_received(data(seq), 1e-9)
    macs[1].on_frame_received(data(129), 1e-9)  # still cached
    macs[1].on_frame_received(data(1), 1e-9)  # evicted first
    assert len(uppers[1].received) == 1 + 129 + 1
    assert macs[1].stats.duplicates_suppressed == 1
    macs[1].fail()
    assert macs[1]._dup_cache is None
    macs[1].recover()
    macs[1].on_frame_received(data(129), 1e-9)  # forgotten at the crash
    assert len(uppers[1].received) == 1 + 129 + 1 + 1


def test_flush_next_hop_drops_queued():
    sim, macs, _ = _network([(0, 0), (150, 0), (150, 150)])
    for _ in range(5):
        macs[0].enqueue(_packet(0, 1), 1)
        macs[0].enqueue(_packet(0, 2), 2)
    flushed = macs[0].flush_next_hop(2)
    assert flushed >= 4  # the head packet may already be in service
    sim.run(until=1.0)


def test_saturation_throughput_below_channel_rate():
    """Offered load beyond 2 Mbps: goodput saturates below the PHY rate
    (DCF overhead), and nothing is delivered out of thin air."""
    sim, macs, uppers = _network([(0, 0), (150, 0)])
    for _ in range(51):
        macs[0].enqueue(_packet(0, 1, size=1500), 1)
    sim.run(until=0.25)
    delivered_bits = sum(p.size_bytes * 8 for p, _ in uppers[1].received)
    throughput = delivered_bits / 0.25
    assert 0.5e6 < throughput < 2e6


# -- contention state ----------------------------------------------------------


def test_backoff_freeze_debits_whole_slots_and_resumes():
    sim, macs, _ = _network([(0, 0)])
    mac = macs[0]
    params = Mac80211Params()
    slot, difs = params.slot_s, params.difs_s
    mac.need_backoff = True
    mac.backoff_slots = 10  # a draw already taken
    mac.enqueue(_packet(0, 1), 1)
    # DIFS, then the 10-slot countdown; freeze 3.5 slots into it.
    frozen_at = difs + 3.5 * slot
    sim.run(until=frozen_at)
    assert mac.backoff_started == difs
    mac.on_medium_busy()
    assert mac.backoff_slots == 7  # the partial slot is not debited
    # Resume: a fresh DIFS, then only the 7 remaining slots.
    mac.on_medium_idle()
    sim.run(until=frozen_at + difs + 6.5 * slot)
    assert mac.stats.data_tx == 0
    sim.run(until=frozen_at + difs + 7.5 * slot)
    assert mac.stats.data_tx == 1
    assert mac.backoff_slots == -1


def test_backoff_freeze_never_debits_below_zero():
    sim, macs, _ = _network([(0, 0)])
    mac = macs[0]
    params = Mac80211Params()
    mac.need_backoff = True
    mac.backoff_slots = 10
    mac.enqueue(_packet(0, 1), 1)
    sim.run(until=params.difs_s + 1.5 * params.slot_s)
    mac.backoff_started -= 20 * params.slot_s  # 21.5 slots "elapsed"
    mac.on_medium_busy()
    assert mac.backoff_slots == 0


def test_cw_doubles_per_retry_saturates_and_resets_after_final_drop():
    params = Mac80211Params(cw_min=15, cw_max=63)
    sim, macs, uppers = _network([(0, 0), (800, 0)], mac_params=params)
    mac = macs[0]
    mac.enqueue(_packet(0, 1), 1)
    windows = []
    while sim.step():
        if mac.stats.retransmissions > len(windows):
            windows.append(mac.cw)
    assert windows == [31, 63, 63, 63, 63, 63]  # short_retry_limit 7
    assert mac.stats.retry_drops == 1
    assert (mac.cw, mac.backoff_slots, mac.need_backoff) == (15, -1, True)


def test_contention_state_resets_after_success_and_after_crash():
    sim, macs, uppers = _network([(0, 0), (150, 0)])
    mac, params = macs[0], Mac80211Params()
    mac.cw = 255  # as if after several failed attempts
    mac.enqueue(_packet(0, 1), 1)
    sim.run(until=0.1)
    assert len(uppers[1].received) == 1
    assert (mac.cw, mac.backoff_slots, mac.need_backoff) == (
        params.cw_min, -1, True,
    )
    mac.cw, mac.backoff_slots, mac.nav_until = 127, 4, 5.0
    mac.fail()
    assert (mac.cw, mac.backoff_slots, mac.need_backoff, mac.nav_until) == (
        params.cw_min, -1, False, 0.0,
    )
