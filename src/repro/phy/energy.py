"""Per-node radio energy accounting (ns-2's EnergyModel).

ns-2 nodes carry an optional energy model that depletes a battery at
distinct transmit/receive/idle powers; VANET studies use it for
protocol-overhead comparisons (every control packet costs energy at every
hearer).  The :class:`Radio` keeps cumulative TX/RX airtime counters;
:class:`EnergyMeter` turns them into joules.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, NamedTuple

from repro.des.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    # Imported lazily so repro.phy.tech (-> energy) stays importable
    # from repro.phy.propagation without a radio -> params cycle.
    from repro.phy.radio import Radio


@dataclasses.dataclass(frozen=True)
class EnergyParams:
    """Power draw per transceiver activity (ns-2 WaveLAN-like defaults)."""

    tx_power_w: float = 0.660
    rx_power_w: float = 0.395
    idle_power_w: float = 0.035
    initial_energy_j: float = 1000.0

    def __post_init__(self) -> None:
        if min(self.tx_power_w, self.rx_power_w, self.idle_power_w) < 0:
            raise ValueError("power draws must be >= 0")
        if self.initial_energy_j <= 0:
            raise ValueError("initial_energy_j must be > 0")


class _AirtimeReading(NamedTuple):
    """A radio's airtime counters, frozen by :meth:`EnergyMeter.detach`."""

    airtime_tx_s: float
    airtime_rx_s: float


class _ClockReading(NamedTuple):
    """A simulator's clock, frozen by :meth:`EnergyMeter.detach`."""

    now: float


class EnergyMeter:
    """Battery bookkeeping over one radio's airtime counters.

    Attach any time; consumption is measured from the attach instant.
    :meth:`detach` freezes the readings at the end of a run.
    """

    def __init__(
        self,
        sim: Simulator,
        radio: Radio,
        params: EnergyParams = EnergyParams(),
    ) -> None:
        self._sim = sim
        self._radio = radio
        self._params = params
        self._start_time = sim.now
        self._start_tx = radio.airtime_tx_s
        self._start_rx = radio.airtime_rx_s

    def detach(self) -> None:
        """Freeze the TX, RX and elapsed readings at this instant and drop
        the live radio and simulator; every reading keeps its value."""
        self._radio = _AirtimeReading(
            self._radio.airtime_tx_s, self._radio.airtime_rx_s
        )
        self._sim = _ClockReading(self._sim.now)

    def __setstate__(self, state: dict) -> None:
        # A pickled meter is a finished run's; one pickled before results
        # were detached still carries the live radio and simulator, whose
        # readings detaching freezes (it is a no-op on frozen readings).
        self.__dict__.update(state)
        self.detach()

    @property
    def tx_time_s(self) -> float:
        """Transmit airtime since attachment."""
        return self._radio.airtime_tx_s - self._start_tx

    @property
    def rx_time_s(self) -> float:
        """Receive airtime since attachment."""
        return self._radio.airtime_rx_s - self._start_rx

    @property
    def elapsed_s(self) -> float:
        """Wall-clock simulated seconds since attachment."""
        return self._sim.now - self._start_time

    @property
    def idle_time_s(self) -> float:
        """Elapsed time not spent transmitting or receiving.

        Clamped at zero: overlapping receptions are each charged, so the
        active time can nominally exceed the elapsed time under extreme
        contention.
        """
        return max(self.elapsed_s - self.tx_time_s - self.rx_time_s, 0.0)

    def consumed_j(self) -> float:
        """Joules consumed since attachment."""
        params = self._params
        return (
            self.tx_time_s * params.tx_power_w
            + self.rx_time_s * params.rx_power_w
            + self.idle_time_s * params.idle_power_w
        )

    def remaining_j(self) -> float:
        """Battery remaining (clamped at 0)."""
        return max(self._params.initial_energy_j - self.consumed_j(), 0.0)

    @property
    def depleted(self) -> bool:
        """True once the battery is exhausted."""
        return self.remaining_j() <= 0.0
