"""The 802.11 Distributed Coordination Function.

Implements the CSMA/CA access procedure the paper's Table I configures:
physical + virtual (NAV) carrier sense, DIFS deferral, binary-exponential
backoff with freeze-and-resume slot counting, positive ACKs with
retransmission for unicast frames, and the optional RTS/CTS exchange
(disabled by default, as in Table I).

Simplifications relative to the full standard, none of which affect the
contention behaviour the evaluation depends on: no EIFS, no fragmentation,
and the backoff counter is realised as a single timer that freezes when the
medium goes busy instead of per-slot events.
"""

from __future__ import annotations

import collections
from typing import Callable, Deque, Optional, Tuple

import numpy as np

from repro.des.engine import Simulator
from repro.des.event import Event
from repro.mac.frames import Frame, FrameType
from repro.mac.params import Mac80211Params
from repro.net.address import BROADCAST
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.phy.tech import TechProfile
from repro.util import slots


class MacStats:
    """Per-MAC counters surfaced to the metrics layer."""

    __slots__ = (
        "data_tx", "ack_tx", "rts_tx", "cts_tx", "retransmissions",
        "retry_drops", "duplicates_suppressed",
    )
    __setstate__ = slots.setstate

    def __init__(self) -> None:
        self.data_tx = 0
        self.ack_tx = 0
        self.rts_tx = 0
        self.cts_tx = 0
        self.retransmissions = 0
        self.retry_drops = 0
        self.duplicates_suppressed = 0

    def frames_tx(self) -> int:
        """All frames transmitted by this MAC."""
        return self.data_tx + self.ack_tx + self.rts_tx + self.cts_tx


class _TxContext:
    """The unicast/broadcast exchange currently being served."""

    __slots__ = ("packet", "next_hop", "retries", "use_rts", "phase", "seq")

    def __init__(
        self, packet: Packet, next_hop: int, use_rts: bool, seq: int
    ) -> None:
        self.packet = packet
        self.next_hop = next_hop
        self.retries = 0
        self.use_rts = use_rts
        self.phase = "rts" if use_rts else "data"
        self.seq = seq


class Mac80211:
    """One node's DCF entity, between the network layer and its radio.

    Contention state is plain attributes, updated one DES event at a
    time: ``cw`` (contention window), ``backoff_slots`` (pending backoff
    slots; ``-1`` means no draw taken yet, distinct from ``0``, a draw
    fully consumed), ``backoff_started`` (when the running countdown
    began), ``need_backoff`` and ``nav_until`` (absolute NAV horizon,
    ``0.0`` until first armed).

    Rates come from a :class:`~repro.phy.tech.TechProfile` (``tech=``;
    defaults to the non-adaptive profile mirroring ``params``, which is
    bit-identical to the fixed-rate code it replaced).  With an
    adaptive profile, each unicast DATA frame is sent at the MCS the
    receiver's cached mean SNR selects — a deterministic table lookup,
    no RNG.  Control frames (RTS/CTS/ACK) always use
    the profile's basic rate; response timeouts stay on ``params``
    (legacy basic rate), which is conservative — never shorter than
    the actual response airtime.

    The duplicate-detection cache (the last 128 ``(sender, seq)`` keys of
    unicast DATA frames addressed to this node, evicted FIFO) is
    allocated by the first such frame: most vehicles on a highway
    receive only broadcasts and never build one.
    """

    __slots__ = (
        "_sim", "_radio", "_address", "_params", "_tech", "_noise_floor_w",
        "_rng", "_queue", "stats", "_down", "_current", "_outgoing", "cw",
        "backoff_slots", "backoff_started", "need_backoff", "nav_until",
        "_timer", "_timer_kind", "_nav_wakeup", "_response_timer",
        "_seq_counter", "_dup_cache", "_on_receive", "_on_failure",
    )
    __setstate__ = slots.setstate

    def __init__(
        self,
        sim: Simulator,
        radio: "Radio",
        params: Mac80211Params,
        rng: Optional[np.random.Generator] = None,
        queue_capacity: int = 50,
        tech: Optional[TechProfile] = None,
    ) -> None:
        self._sim = sim
        self._radio = radio
        #: The radio's node id, copied: the receive path and every frame
        #: built read it, and a plain attribute skips two property calls.
        self._address = radio.node_id
        self._params = params
        self._tech = (
            tech if tech is not None else TechProfile.from_mac_params(params)
        )
        self._noise_floor_w = self._tech.noise_floor_w
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._queue = DropTailQueue(queue_capacity)
        self.stats = MacStats()

        #: Crash state: a down MAC accepts nothing, reacts to nothing.
        self._down = False
        self._current: Optional[_TxContext] = None
        self._outgoing: Optional[Frame] = None
        self.cw = params.cw_min
        self.backoff_slots = -1
        self.backoff_started = 0.0
        self.need_backoff = False
        self.nav_until = 0.0
        self._timer: Optional[Event] = None
        self._timer_kind = ""
        self._nav_wakeup: Optional[Event] = None
        self._response_timer: Optional[Event] = None
        self._seq_counter = 0
        self._dup_cache: Optional[Deque[Tuple[int, int]]] = None

        self._on_receive: Callable[[Packet, int], None] = lambda p, h: None
        self._on_failure: Callable[[Packet, int], None] = lambda p, h: None
        radio.attach_mac(self)

    # -- wiring ------------------------------------------------------------

    def attach_upper(
        self,
        on_receive: Callable[[Packet, int], None],
        on_failure: Callable[[Packet, int], None],
    ) -> None:
        """Connect the network layer.

        ``on_receive(packet, prev_hop)`` fires for every decoded DATA frame
        addressed to this node or to broadcast; ``on_failure(packet,
        next_hop)`` fires when a unicast frame exhausts its retry budget
        (the routing layer's link-breakage signal).
        """
        self._on_receive = on_receive
        self._on_failure = on_failure

    @property
    def address(self) -> int:
        """The MAC address (= node id)."""
        return self._address

    @property
    def queue(self) -> DropTailQueue:
        """The interface queue."""
        return self._queue

    # -- network-layer entry points -----------------------------------------

    def enqueue(
        self, packet: Packet, next_hop: int, priority: bool = False
    ) -> bool:
        """Queue a packet for transmission to ``next_hop`` (or BROADCAST).

        ``priority`` packets (routing control, per ns-2's PriQueue) go to
        the head of the interface queue.  Returns False when the queue
        dropped the packet.
        """
        if self._down:
            return False
        accepted = self._queue.enqueue(packet, next_hop, priority)
        if accepted:
            self._serve()
        return accepted

    def flush_next_hop(self, next_hop: int) -> int:
        """Drop queued packets bound for a hop routing declared dead."""
        return self._queue.remove_for_next_hop(next_hop)

    # -- crash / recovery (fault injection) ----------------------------------

    def fail(self):
        """Crash the MAC: cancel timers, wipe state, flush the queue.

        Returns the flushed ``(packet, next_hop)`` pairs — including the
        exchange in service — so the owning node can record them as
        drops.  Scheduled-but-untracked events (SIFS responses, post-CTS
        data) are gated by ``_down`` instead of cancelled; they fire as
        no-ops.  The frame sequence counter survives so post-recovery
        frames cannot collide with pre-crash entries in neighbours'
        duplicate caches.
        """
        self._down = True
        flushed = []
        if self._current is not None:
            flushed.append((self._current.packet, self._current.next_hop))
            self._current = None
        self._outgoing = None
        for attr in ("_timer", "_response_timer", "_nav_wakeup"):
            event = getattr(self, attr)
            if event is not None:
                event.cancel()
                setattr(self, attr, None)
        self._timer_kind = ""
        self.cw = self._params.cw_min
        self.backoff_slots = -1
        self.need_backoff = False
        self.nav_until = 0.0
        self._dup_cache = None
        while True:
            head = self._queue.dequeue()
            if head is None:
                break
            flushed.append(head)
        return flushed

    def recover(self) -> None:
        """Bring a crashed MAC back up (state was wiped at crash time)."""
        self._down = False

    # -- serving the queue ---------------------------------------------------

    def _serve(self) -> None:
        if self._current is not None:
            return
        head = self._queue.dequeue()
        if head is None:
            return
        packet, next_hop = head
        use_rts = next_hop != BROADCAST and self._params.uses_rts(
            packet.size_bytes
        )
        self._seq_counter += 1
        self._current = _TxContext(packet, next_hop, use_rts, self._seq_counter)
        self._begin_access()

    def _begin_access(self) -> None:
        if self._current is None:
            return
        if self._timer is not None or self._response_timer is not None:
            return
        if self._outgoing is not None:
            return  # mid-transmission; on_tx_done resumes
        if not self._medium_free():
            self.need_backoff = True
            return
        if self.need_backoff and self.backoff_slots < 0:
            self.backoff_slots = int(self._rng.integers(0, self.cw + 1))
        self._timer_kind = "difs"
        self._timer = self._sim.schedule(self._params.difs_s, self._difs_done)

    def _difs_done(self) -> None:
        self._timer = None
        if not self._medium_free():
            return
        slots = self.backoff_slots
        if slots > 0:
            self._timer_kind = "backoff"
            self.backoff_started = self._sim.now
            self._timer = self._sim.schedule(
                slots * self._params.slot_s, self._backoff_done
            )
        else:
            self.backoff_slots = -1
            self.need_backoff = False
            self._transmit_current()

    def _backoff_done(self) -> None:
        self._timer = None
        self.backoff_slots = -1
        self.need_backoff = False
        self._transmit_current()

    def _medium_free(self) -> bool:
        return not self._radio.medium_busy() and (
            self._sim.now >= self.nav_until
        )

    # -- radio callbacks ------------------------------------------------------

    def on_medium_busy(self) -> None:
        """Physical carrier went busy: freeze any pending access timers."""
        if self._down:
            return
        self.need_backoff = True
        if self._timer is not None:
            if self._timer_kind == "backoff" and self.backoff_slots > 0:
                # Freeze the countdown: debit the whole slots elapsed.
                consumed = int(
                    (self._sim.now - self.backoff_started)
                    / self._params.slot_s
                )
                self.backoff_slots = max(self.backoff_slots - consumed, 0)
            self._timer.cancel()
            self._timer = None

    def on_medium_idle(self) -> None:
        """Physical carrier went idle: resume the access procedure."""
        if self._down or self._current is None:
            return
        self._begin_access()

    def on_tx_done(self) -> None:
        """Our own frame left the air; arm response timers if needed."""
        if self._down:
            return
        frame = self._outgoing
        self._outgoing = None
        if frame is None:
            return
        ctx = self._current
        if ctx is None:
            return
        if frame.frame_type is FrameType.DATA and frame.seq == ctx.seq:
            if ctx.next_hop == BROADCAST:
                self._complete()
            else:
                self._response_timer = self._sim.schedule(
                    self._params.ack_timeout(), self._response_timeout
                )
        elif frame.frame_type is FrameType.RTS:
            self._response_timer = self._sim.schedule(
                self._params.cts_timeout(), self._response_timeout
            )

    def on_frame_received(self, frame: Frame, rx_power_w: float) -> None:
        """A frame decoded successfully at our radio."""
        if self._down:
            return
        if frame.rx_addr == BROADCAST:
            if frame.frame_type is FrameType.DATA:
                self._on_receive(frame.packet, frame.tx_addr)
            return
        if frame.rx_addr != self._address:
            # Virtual carrier sense: honour the Duration field.
            self._update_nav(self._sim.now + frame.duration_s)
            return
        if frame.frame_type is FrameType.DATA:
            self._sim.schedule(
                self._params.sifs_s, self._send_response, FrameType.ACK,
                frame.tx_addr,
            )
            key = (frame.tx_addr, frame.seq)
            cache = self._dup_cache
            if cache is None:
                cache = self._dup_cache = collections.deque(maxlen=128)
            elif key in cache:
                self.stats.duplicates_suppressed += 1
                return
            cache.append(key)
            self._on_receive(frame.packet, frame.tx_addr)
        elif frame.frame_type is FrameType.ACK:
            self._on_response(FrameType.ACK)
        elif frame.frame_type is FrameType.RTS:
            if self._sim.now >= self.nav_until:
                self._sim.schedule(
                    self._params.sifs_s, self._send_response, FrameType.CTS,
                    frame.tx_addr,
                )
        elif frame.frame_type is FrameType.CTS:
            self._on_response(FrameType.CTS)

    # -- transmission ---------------------------------------------------------

    def _rate_for(self, next_hop: int) -> float:
        """Data rate (bps) for the next DATA frame to ``next_hop``.

        Non-adaptive profiles (the default) short-circuit to their
        single MCS without ever computing an SNR — zero extra work on
        the bit-identity path.  Adaptive profiles send broadcast at the
        lowest (most robust) MCS and unicast at the rate the receiver's
        cached mean SNR selects.
        """
        tech = self._tech
        if not tech.adaptive or next_hop == BROADCAST:
            return tech.mcs[0][1]
        snr = self._radio.link_snr_db(next_hop, self._noise_floor_w)
        return tech.rate_for_snr_db(snr)

    def _transmit_current(self) -> None:
        ctx = self._current
        if ctx is None or not self._medium_free():
            return
        if ctx.use_rts and ctx.phase == "rts":
            self._transmit_rts(ctx)
        else:
            self._transmit_data(ctx)

    def _transmit_data(self, ctx: _TxContext) -> None:
        size = self._params.frame_size(FrameType.DATA, ctx.packet.size_bytes)
        duration = (
            0.0
            if ctx.next_hop == BROADCAST
            else self._params.sifs_s + self._params.ack_tx_time()
        )
        frame = Frame(
            frame_type=FrameType.DATA,
            tx_addr=self._address,
            rx_addr=ctx.next_hop,
            size_bytes=size,
            duration_s=duration,
            packet=ctx.packet,
            seq=ctx.seq,
        )
        self._outgoing = frame
        self.stats.data_tx += 1
        rate = self._rate_for(ctx.next_hop)
        self._radio.transmit(frame, self._tech.frame_airtime(size, rate))

    def _transmit_rts(self, ctx: _TxContext) -> None:
        size = self._params.frame_size(FrameType.RTS)
        data_size = self._params.frame_size(
            FrameType.DATA, ctx.packet.size_bytes
        )
        # Reserve through CTS + DATA + ACK (the DATA leg at the rate the
        # link's SNR selects, so the NAV tracks rate adaptation).
        duration = (
            3 * self._params.sifs_s
            + self._params.cts_tx_time()
            + self._tech.frame_airtime(data_size, self._rate_for(ctx.next_hop))
            + self._params.ack_tx_time()
        )
        frame = Frame(
            frame_type=FrameType.RTS,
            tx_addr=self._address,
            rx_addr=ctx.next_hop,
            size_bytes=size,
            duration_s=duration,
            seq=ctx.seq,
        )
        self._outgoing = frame
        self.stats.rts_tx += 1
        self._radio.transmit(
            frame, self._tech.frame_airtime(size, self._tech.basic_rate_bps)
        )

    def _send_response(self, frame_type: FrameType, to: int) -> None:
        # Scheduled before a crash, firing after: stay silent.
        if self._down:
            return
        # SIFS responses (ACK/CTS) preempt contention, but a half-duplex
        # radio that started talking in the meantime cannot send one.
        if self._radio._transmitting:
            return
        size = self._params.frame_size(frame_type)
        duration = 0.0
        if frame_type is FrameType.CTS:
            # Reserve through DATA + ACK (conservatively for a max frame is
            # not possible — we do not know the size — so reserve SIFS+ACK
            # beyond a typical data frame the way ns-2 does via the RTS
            # duration; third parties already hold the RTS reservation).
            duration = 2 * self._params.sifs_s + self._params.ack_tx_time()
        frame = Frame(
            frame_type=frame_type,
            tx_addr=self._address,
            rx_addr=to,
            size_bytes=size,
            duration_s=duration,
        )
        if frame_type is FrameType.ACK:
            self.stats.ack_tx += 1
        else:
            self.stats.cts_tx += 1
        self._radio.transmit(
            frame, self._tech.frame_airtime(size, self._tech.basic_rate_bps)
        )

    # -- responses and retries --------------------------------------------------

    def _on_response(self, frame_type: FrameType) -> None:
        ctx = self._current
        if ctx is None or self._response_timer is None:
            return
        if frame_type is FrameType.ACK and ctx.phase == "data":
            self._response_timer.cancel()
            self._response_timer = None
            self._complete()
        elif frame_type is FrameType.CTS and ctx.phase == "rts":
            self._response_timer.cancel()
            self._response_timer = None
            ctx.phase = "data"
            self._sim.schedule(self._params.sifs_s, self._transmit_after_cts)

    def _transmit_after_cts(self) -> None:
        if self._down:
            return
        ctx = self._current
        if ctx is None or ctx.phase != "data":
            return
        if self._radio._transmitting:
            return
        self._transmit_data(ctx)

    def _response_timeout(self) -> None:
        self._response_timer = None
        ctx = self._current
        if ctx is None:
            return
        limit = (
            self._params.long_retry_limit
            if ctx.use_rts
            else self._params.short_retry_limit
        )
        ctx.retries += 1
        if ctx.retries >= limit:
            self.stats.retry_drops += 1
            packet, next_hop = ctx.packet, ctx.next_hop
            self._complete()
            self._on_failure(packet, next_hop)
            return
        self.stats.retransmissions += 1
        if ctx.use_rts:
            ctx.phase = "rts"
        # Binary-exponential CW growth, saturating at cw_max.
        self.cw = min(2 * (self.cw + 1) - 1, self._params.cw_max)
        self.backoff_slots = int(self._rng.integers(0, self.cw + 1))
        self.need_backoff = True
        self._begin_access()

    def _complete(self) -> None:
        """Finish the current exchange (success or final drop) and move on."""
        self._current = None
        # Post-transmission backoff: the standard requires a fresh backoff
        # before the next frame, which also de-synchronises flooding storms.
        self.cw = self._params.cw_min
        self.backoff_slots = -1
        self.need_backoff = True
        self._serve()

    # -- NAV -----------------------------------------------------------------

    def _update_nav(self, until: float) -> None:
        if until <= self.nav_until:
            return
        self.nav_until = until
        if self._nav_wakeup is not None:
            self._nav_wakeup.cancel()
        self._nav_wakeup = self._sim.schedule(
            until - self._sim.now, self._nav_expired
        )

    def _nav_expired(self) -> None:
        self._nav_wakeup = None
        if not self._radio.medium_busy():
            self._begin_access()
