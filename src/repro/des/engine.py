"""The event-heap simulator engine."""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.des.event import Event
from repro.util.errors import InvariantViolation, ReproError


class SimulationError(ReproError, RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling in the past)."""


class Simulator:
    """A minimal, deterministic discrete-event scheduler.

    Time is a float in seconds, starting at 0.  Events scheduled for the same
    instant fire in the order they were scheduled.

    The heap stores ``(time, seq, event)`` tuples rather than bare events:
    tuple comparison of two floats/ints runs in C, whereas ``Event.__lt__``
    would be a Python call — and heap sifting is the hottest spot of a
    packed simulation (millions of comparisons per run).  ``seq`` is unique,
    so the comparison never falls through to the event object.

    Two ways in share that one ``(time, seq)`` order: :meth:`schedule`
    returns a cancellable :class:`Event` (timers, timeouts), while
    :meth:`post` pushes a bare ``(time, seq, callback, args)`` entry for
    the events nobody cancels (per-receiver signal arrivals and ends), so
    the data plane allocates no handle per event.

    Two always-on invariant guards protect long campaigns from silent
    state corruption, both O(1) per event:

    * **time monotonicity** — a popped event behind the current clock means
      the heap (or an event's time) was corrupted; the run aborts with
      :class:`~repro.util.errors.InvariantViolation` instead of silently
      rewinding time;
    * **no starvation** — more than ``max_same_time_events`` consecutive
      firings at one instant means a zero-delay event loop is starving the
      clock (the classic runaway-retry bug); the default bound is far above
      anything a real scenario produces.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.0, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run(until=2.0)
    >>> fired
    ['b', 'a']
    """

    #: Default cap on consecutive events at one instant (starvation guard).
    DEFAULT_MAX_SAME_TIME_EVENTS = 1_000_000

    def __init__(self, max_same_time_events: Optional[int] = None) -> None:
        self.max_same_time_events = (
            int(max_same_time_events)
            if max_same_time_events is not None
            else self.DEFAULT_MAX_SAME_TIME_EVENTS
        )
        self._same_time_run = 0
        self._now = 0.0
        self._heap: List[tuple] = []
        #: Entries ever pushed (also the next tie-breaking sequence number).
        self._seq = 0
        self._running = False
        self._stopped = False
        # Handles cancelled before firing.  With ``_seq`` and
        # ``events_processed`` it makes `pending_events` exact without
        # per-event bookkeeping or heap scans.
        self._cancelled = 0
        self._note_cancel = self._count_cancel
        #: Events fired so far (cancelled events are skipped, not counted).
        self.events_processed = 0

    def _count_cancel(self) -> None:
        self._cancelled += 1

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of not-yet-fired, not-cancelled events.  O(1)."""
        return self._seq - self.events_processed - self._cancelled

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        Returns the :class:`Event`, which the caller may :meth:`~Event.cancel`
        (the idiom for ACK timeouts, hello timers, route expiry...).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        time = self._now + delay
        seq = self._seq
        event = Event(time, seq, callback, args, self._note_cancel)
        self._seq = seq + 1
        heappush(self._heap, (time, seq, event))
        return event

    def post(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Fire ``callback(*args)`` ``delay`` seconds from now; no handle.

        Same ordering as :meth:`schedule` (one shared sequence counter),
        minus the :class:`Event` allocation.  Use it for events nobody
        will cancel; use :meth:`schedule` when the caller keeps the
        handle.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self._now + delay, seq, callback, args))

    def schedule_batch(
        self,
        items: Iterable[Tuple[float, Callable[..., Any], Tuple[Any, ...]]],
    ) -> List[Event]:
        """Schedule many ``(delay, callback, args)`` entries in one call.

        Semantically identical to calling :meth:`schedule` per item (same
        sequence-number tie-breaking, in iteration order) but with the
        per-call overhead hoisted out of the loop.
        """
        now = self._now
        seq = self._seq
        heap = self._heap
        note_cancel = self._note_cancel
        events: List[Event] = []
        try:
            for delay, callback, args in items:
                if delay < 0:
                    raise SimulationError(
                        f"cannot schedule in the past: delay={delay}"
                    )
                time = now + delay
                event = Event(time, seq, callback, args, note_cancel)
                heappush(heap, (time, seq, event))
                seq += 1
                events.append(event)
        finally:
            # Keep the counter exact even if the iterable raises mid-batch.
            self._seq = seq
        return events

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        return self.schedule(time - self._now, callback, *args)

    def stop(self) -> None:
        """Stop the run loop after the currently-firing event returns."""
        self._stopped = True

    def run(self, until: Optional[float] = None) -> None:
        """Process events in time order.

        With ``until`` set, processes every event with ``time <= until`` and
        then advances the clock to ``until``; without it, runs until the heap
        drains or :meth:`stop` is called.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        self._stopped = False
        heap = self._heap
        horizon = math.inf if until is None else until
        limit = self.max_same_time_events
        try:
            while heap and not self._stopped:
                entry = heap[0]
                time = entry[0]
                if time > horizon:
                    break
                heappop(heap)
                if len(entry) == 3:
                    event = entry[2]
                    if event.cancelled:
                        continue
                    # A fired handle's later cancel() must not count.
                    event.on_cancel = None
                    callback = event.callback
                    args = event.args
                else:
                    callback = entry[2]
                    args = entry[3]
                # The guards' fast path; _check_time_invariants only raises.
                now = self._now
                if time > now:
                    self._same_time_run = 0
                elif time < now or self._same_time_run >= limit:
                    self._check_time_invariants(time)
                else:
                    self._same_time_run += 1
                self.events_processed += 1
                self._now = time
                callback(*args)
            if until is not None and not self._stopped and until > self._now:
                self._now = until
        finally:
            self._running = False

    def _check_time_invariants(self, time: float) -> None:
        """O(1) per-event guards: monotone clock, no zero-delay starvation."""
        if time < self._now:
            raise InvariantViolation(
                "event time went backwards",
                event_time=time,
                now=self._now,
                events_processed=self.events_processed,
            )
        if time == self._now:
            self._same_time_run += 1
            if self._same_time_run > self.max_same_time_events:
                raise InvariantViolation(
                    "event starvation: too many consecutive events at one "
                    "instant (zero-delay event loop?)",
                    now=self._now,
                    limit=self.max_same_time_events,
                    events_processed=self.events_processed,
                )
        else:
            self._same_time_run = 0

    def step(self) -> bool:
        """Fire the single next active event.  Returns False when drained."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if len(entry) == 3:
                event = entry[2]
                if event.cancelled:
                    continue
                event.on_cancel = None
                callback, args = event.callback, event.args
            else:
                callback, args = entry[2], entry[3]
            time = entry[0]
            self._check_time_invariants(time)
            self.events_processed += 1
            self._now = time
            callback(*args)
            return True
        return False
