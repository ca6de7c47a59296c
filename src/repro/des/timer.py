"""Periodic timers built on the event heap.

Routing protocols are driven by periodic beacons (HELLO, TC, DSDV table
dumps).  ``PeriodicTimer`` wraps the reschedule-on-fire idiom and supports
optional per-firing jitter, which real implementations add to de-synchronise
beacons between neighbouring nodes.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.des.engine import Simulator
from repro.des.event import Event
from repro.util import slots
from repro.util.errors import ConfigError


class PeriodicTimer:
    """Fires ``callback()`` every ``interval`` seconds until stopped.

    ``jitter`` (seconds) subtracts a uniform random amount in ``[0, jitter)``
    from each interval, mirroring the MAX_JITTER behaviour of OLSR (RFC 3626
    section 18.1).  Pass a seeded generator for reproducibility.
    """

    __slots__ = (
        "_sim", "_interval", "_callback", "_jitter", "_rng", "_event",
        "_running", "_start_delay",
    )
    __setstate__ = slots.setstate

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], Any],
        jitter: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        start_delay: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise ConfigError(f"interval must be > 0, got {interval}")
        if jitter < 0 or jitter >= interval:
            raise ConfigError(f"jitter must be in [0, interval), got {jitter}")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._jitter = jitter
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._event: Optional[Event] = None
        self._running = False
        self._start_delay = start_delay

    @property
    def running(self) -> bool:
        """True while the timer is armed."""
        return self._running

    def start(self) -> None:
        """Arm the timer.  The first firing happens after ``start_delay``
        (default: one jittered interval).  Starting twice is a no-op."""
        if self._running:
            return
        self._running = True
        delay = (
            self._start_delay
            if self._start_delay is not None
            else self._next_delay()
        )
        self._event = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        """Disarm the timer; the pending firing is cancelled."""
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _next_delay(self) -> float:
        if self._jitter > 0:
            return self._interval - float(self._rng.uniform(0, self._jitter))
        return self._interval

    def _fire(self) -> None:
        if not self._running:
            return
        self._event = self._sim.schedule(self._next_delay(), self._fire)
        self._callback()
