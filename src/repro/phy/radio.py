"""Half-duplex radio transceiver with interference and capture.

Reception semantics follow ns-2's WirelessPhy/Mac-802.11 pair:

* a frame is *detectable* when it arrives above the carrier-sense threshold
  (the channel only delivers detectable frames);
* it is *decodable* when it arrives above the receive threshold, does not
  overlap the radio's own transmissions, and is stronger than every
  overlapping signal by at least the capture ratio (10 dB by default) —
  otherwise the overlap is a collision and the frame is dropped;
* the medium is *busy* while any detectable signal is in the air or the
  radio itself is transmitting.

The MAC attaches through four callbacks: ``on_medium_busy``,
``on_medium_idle``, ``on_frame_received(frame, rx_power)`` and
``on_tx_done``.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Protocol

from repro.des.engine import Simulator
from repro.mac.frames import Frame
from repro.phy.params import PhyParams
from repro.util import slots


class RadioState(enum.Enum):
    """Transceiver activity."""

    IDLE = "idle"
    RX = "rx"
    TX = "tx"


class MacCallbacks(Protocol):
    """What the radio needs from its MAC."""

    def on_medium_busy(self) -> None: ...

    def on_medium_idle(self) -> None: ...

    def on_frame_received(self, frame: Frame, rx_power_w: float) -> None: ...

    def on_tx_done(self) -> None: ...


class _Signal:
    """One in-flight arriving transmission at this radio."""

    __slots__ = ("frame", "power", "corrupted", "max_interference")

    def __init__(self, frame: Frame, power: float) -> None:
        self.frame = frame
        self.power = power
        self.corrupted = False
        self.max_interference = 0.0


class Radio:
    """One node's transceiver, attached to the shared :class:`Channel`."""

    __slots__ = (
        "_sim", "_node_id", "_params", "_channel", "tx_power_w",
        "cs_threshold_w", "_rx_threshold_w", "_capture_ratio", "_mac",
        "_signals", "enabled", "_transmitting", "airtime_tx_s",
        "airtime_rx_s", "_signal_end_cb",
    )
    __setstate__ = slots.setstate

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        params: PhyParams,
        channel: "Channel",
    ) -> None:
        self._sim = sim
        self._node_id = node_id
        self._params = params
        self._channel = channel
        #: Hot-path copies of the PHY parameters the channel reads per
        #: frame (attribute access on a frozen dataclass is measurably
        #: slower than a plain instance attribute).
        self.tx_power_w = params.tx_power_w
        self.cs_threshold_w = params.cs_threshold_w
        self._rx_threshold_w = params.rx_threshold_w
        self._capture_ratio = params.capture_ratio
        self._mac: Optional[MacCallbacks] = None
        self._signals: List[_Signal] = []
        #: Power state: a disabled radio (crashed node) ignores arriving
        #: signals entirely — nothing is detectable, nothing decodable.
        self.enabled = True
        self._transmitting = False
        #: Cumulative seconds spent transmitting (energy accounting).
        self.airtime_tx_s = 0.0
        #: Cumulative seconds of arriving signals heard while not
        #: transmitting (energy accounting; overlapping arrivals each
        #: count — the front end is demodulating throughout).
        self.airtime_rx_s = 0.0
        #: Bound once here: every arriving signal posts its end event,
        #: and binding the method per signal costs an object each time.
        self._signal_end_cb = self._signal_end
        channel.register(self)

    # -- wiring ------------------------------------------------------------

    def attach_mac(self, mac: MacCallbacks) -> None:
        """Connect the MAC that receives this radio's callbacks."""
        self._mac = mac

    @property
    def node_id(self) -> int:
        """The owning node's identifier (also the MAC address)."""
        return self._node_id

    @property
    def params(self) -> PhyParams:
        """The radio's PHY parameter set."""
        return self._params

    @property
    def state(self) -> RadioState:
        """Current transceiver state."""
        if self._transmitting:
            return RadioState.TX
        if self._signals:
            return RadioState.RX
        return RadioState.IDLE

    def medium_busy(self) -> bool:
        """Physical carrier sense: any detectable signal, or own TX."""
        return self._transmitting or bool(self._signals)

    def link_snr_db(self, receiver_id: int, noise_floor_w: float) -> float:
        """Mean SNR (dB) of the link from this radio to ``receiver_id``.

        Delegates to the channel's slot-cached, deterministic SNR (no
        fading draw); the MAC's rate adaptation is the caller.
        """
        return self._channel.link_snr_db(
            self._node_id, receiver_id, noise_floor_w
        )

    # -- power state (fault injection) -------------------------------------

    def disable(self) -> None:
        """Power the receiver down (node crash).

        In-flight arrivals are corrupted, not removed: their
        ``_signal_end`` events are already scheduled and must find their
        signal in the list.  New arrivals are ignored at
        :meth:`signal_start` while disabled.
        """
        self.enabled = False
        for signal in self._signals:
            signal.corrupted = True

    def enable(self) -> None:
        """Power the receiver back up (node recovery)."""
        self.enabled = True

    # -- transmit path -----------------------------------------------------

    def transmit(self, frame: Frame, duration_s: float) -> None:
        """Put ``frame`` on the air for ``duration_s`` seconds.

        Half-duplex: any reception in progress is corrupted.  Raises if the
        radio is already transmitting (a MAC logic error).
        """
        if self._transmitting:
            raise RuntimeError(
                f"radio {self._node_id} is already transmitting"
            )
        was_busy = bool(self._signals)
        self._transmitting = True
        self.airtime_tx_s += duration_s
        for signal in self._signals:
            signal.corrupted = True
        if not was_busy and self._mac is not None:
            self._mac.on_medium_busy()
        self._channel.transmit(self._node_id, frame, duration_s)
        self._sim.post(duration_s, self._tx_done)

    def _tx_done(self) -> None:
        self._transmitting = False
        mac = self._mac
        if mac is not None:
            mac.on_tx_done()
            if not (self._transmitting or self._signals):
                mac.on_medium_idle()

    # -- receive path (driven by the channel) ------------------------------

    def signal_start(self, frame: Frame, power_w: float, duration_s: float) -> None:
        """The channel announces an arriving signal (already above CS)."""
        if not self.enabled:
            return
        signals = self._signals
        signal = _Signal(frame, power_w)
        if self._transmitting:
            signal.corrupted = True
            was_busy = True
        else:
            self.airtime_rx_s += duration_s
            was_busy = bool(signals)
        # Mutual interference bookkeeping with every overlapping signal
        # (same results as max(): a tie or NaN keeps the current value).
        for other in signals:
            if power_w > other.max_interference:
                other.max_interference = power_w
            if other.power > signal.max_interference:
                signal.max_interference = other.power
        signals.append(signal)
        if not was_busy and self._mac is not None:
            self._mac.on_medium_busy()
        self._sim.post(duration_s, self._signal_end_cb, signal)

    def _signal_end(self, signal: _Signal) -> None:
        self._signals.remove(signal)
        mac = self._mac
        if mac is None:
            return
        power = signal.power
        if (
            not signal.corrupted
            and not self._transmitting
            and power >= self._rx_threshold_w
            and power >= self._capture_ratio * signal.max_interference
        ):
            mac.on_frame_received(signal.frame, power)
        if not (self._transmitting or self._signals):
            mac.on_medium_idle()
