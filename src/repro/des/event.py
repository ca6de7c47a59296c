"""Scheduled events for the discrete-event kernel."""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple


class Event:
    """A callback scheduled at a simulated time.

    Events are created through :meth:`repro.des.Simulator.schedule` and are
    ordered by ``(time, sequence)`` so that simultaneous events fire in
    scheduling order (deterministic tie-breaking, matching ns-2 semantics).

    A cancelled event stays in the heap but is skipped by the engine; this
    "lazy deletion" keeps cancellation O(1).  ``on_cancel`` (set by the
    scheduler) fires exactly once, on the first cancellation of a
    not-yet-fired event — the engine counts cancellations with it, so
    ``pending_events`` stays exact without heap scans.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "on_cancel")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        on_cancel: Optional[Callable[[], None]] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.on_cancel = on_cancel

    def cancel(self) -> None:
        """Prevent this event from firing.  Cancelling twice is harmless."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.on_cancel is not None:
            self.on_cancel()

    @property
    def active(self) -> bool:
        """True while the event is still going to fire."""
        return not self.cancelled

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "active"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time:.6f} {name} {state}>"
