"""Discrete-event kernel tests."""

import pytest

from repro.des.engine import SimulationError, Simulator
from repro.util.errors import InvariantViolation


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(1.5, fired.append, "middle")
    sim.run()
    assert fired == ["early", "middle", "late"]


def test_simultaneous_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for tag in range(5):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(3.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [3.5]
    assert sim.now == 3.5


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "in")
    sim.schedule(5.0, fired.append, "out")
    sim.run(until=2.0)
    assert fired == ["in"]
    assert sim.now == 2.0
    sim.run(until=10.0)
    assert fired == ["in", "out"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []
    assert not event.active


def test_cancel_twice_is_harmless():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain():
        fired.append(sim.now)
        if sim.now < 3.0:
            sim.schedule(1.0, chain)

    sim.schedule(1.0, chain)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_schedule_in_past_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(4.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [4.0]


def test_stop_halts_processing():
    sim = Simulator()
    fired = []

    def first():
        fired.append(1)
        sim.stop()

    sim.schedule(1.0, first)
    sim.schedule(2.0, fired.append, 2)
    sim.run()
    assert fired == [1]


def test_step_processes_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.step()
    assert fired == ["a"]
    assert sim.step()
    assert fired == ["a", "b"]
    assert not sim.step()


def test_pending_events_counts_active_only():
    sim = Simulator()
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    drop.cancel()
    assert sim.pending_events == 1
    assert keep.active


def test_zero_delay_event_fires_now():
    sim = Simulator()
    sim.schedule(1.0, lambda: sim.schedule(0.0, marks.append, sim.now))
    marks = []
    sim.run()
    assert marks == [1.0]


def test_pending_events_tracks_lifecycle_without_heap_scans():
    """The counter stays exact through schedule / cancel / fire / drain."""
    sim = Simulator()
    assert sim.pending_events == 0
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert sim.pending_events == 10
    events[3].cancel()
    events[3].cancel()  # double-cancel must not double-decrement
    events[7].cancel()
    assert sim.pending_events == 8
    sim.run(until=2.0)  # fires events at t=1 and t=2
    assert sim.pending_events == 6
    sim.run()
    assert sim.pending_events == 0


def test_pending_events_is_o1():
    """Polling the counter must not scan the heap (telemetry calls it a lot)."""
    import time

    sim = Simulator()
    for i in range(50_000):
        sim.schedule(float(i), lambda: None)
    start = time.perf_counter()
    for _ in range(10_000):
        assert sim.pending_events == 50_000
    elapsed = time.perf_counter() - start
    # 10k polls over a 50k heap: a scanning implementation needs ~500M
    # iterations (tens of seconds); the counter is microseconds per poll.
    assert elapsed < 1.0


def test_pending_events_with_step_and_cancel_after_pop_order():
    sim = Simulator()
    a = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    sim.step()
    assert sim.pending_events == 1
    a.cancel()  # cancelling an already-fired event is a no-op for the count
    assert sim.pending_events == 1


def test_events_processed_counts_fired_not_cancelled():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    dropped = sim.schedule(2.0, lambda: None)
    sim.schedule(3.0, lambda: None)
    dropped.cancel()
    sim.run()
    assert sim.events_processed == 2


def test_schedule_batch_matches_sequential_semantics():
    sim_a, sim_b = Simulator(), Simulator()
    fired_a, fired_b = [], []
    sim_a.schedule_batch(
        [
            (1.0, fired_a.append, ("x",)),
            (1.0, fired_a.append, ("y",)),
            (0.5, fired_a.append, ("z",)),
        ]
    )
    sim_b.schedule(1.0, fired_b.append, "x")
    sim_b.schedule(1.0, fired_b.append, "y")
    sim_b.schedule(0.5, fired_b.append, "z")
    sim_a.run()
    sim_b.run()
    assert fired_a == fired_b == ["z", "x", "y"]


def test_schedule_batch_returns_cancellable_events():
    sim = Simulator()
    fired = []
    events = sim.schedule_batch(
        (0.1 * k, fired.append, (k,)) for k in range(4)
    )
    assert sim.pending_events == 4
    events[2].cancel()
    sim.run()
    assert fired == [0, 1, 3]


def test_schedule_batch_rejects_past_delays():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_batch([(0.5, lambda: None, ()), (-0.1, lambda: None, ())])


# -- handle-free events (post) -------------------------------------------------


def test_posted_and_scheduled_events_share_seq_order_at_equal_times():
    sim = Simulator()
    fired = []
    sim.post(1.0, fired.append, "p0")
    sim.schedule(1.0, fired.append, "s1")
    sim.post(1.0, fired.append, "p2")
    sim.schedule_batch([(1.0, fired.append, ("s3",))])
    sim.post(0.5, fired.append, "early")
    sim.run()
    assert fired == ["early", "p0", "s1", "p2", "s3"]
    assert sim.events_processed == 5


def test_post_returns_no_handle_and_rejects_negative_delay():
    sim = Simulator()
    assert sim.post(0.0, lambda: None) is None
    with pytest.raises(SimulationError):
        sim.post(-1e-9, lambda: None)
    assert sim.pending_events == 1  # the rejected post left no entry


def test_pending_events_exact_through_post_schedule_cancel_run_and_step():
    sim = Simulator()
    sim.post(1.0, lambda: None)
    kept = sim.schedule(2.0, lambda: None)
    dropped = sim.schedule(3.0, lambda: None)
    sim.post(4.0, lambda: None)
    assert sim.pending_events == 4
    dropped.cancel()
    dropped.cancel()
    assert sim.pending_events == 3
    assert sim.step()  # the posted t=1 event
    assert sim.pending_events == 2
    sim.run(until=2.5)  # fires `kept`
    assert sim.pending_events == 1
    kept.cancel()  # already fired: not counted again
    assert sim.pending_events == 1
    assert sim.step()  # skips the cancelled t=3 entry, fires the t=4 post
    assert sim.pending_events == 0
    assert not sim.step()
    assert sim.events_processed == 3


def test_clock_monotonicity_guard_fires_for_posted_events():
    for drive in ("run", "step"):
        sim = Simulator()
        sim.post(1.0, lambda: None)
        sim._now = 5.0  # corrupt the clock
        with pytest.raises(InvariantViolation, match="backwards"):
            getattr(sim, drive)()


def test_starvation_guard_fires_for_posted_events_in_run():
    sim = Simulator(max_same_time_events=50)

    def respawn():
        if sim.events_processed < 200:  # bounded, so a missed guard fails
            sim.post(0.0, respawn)

    sim.post(0.0, respawn)
    with pytest.raises(InvariantViolation, match="starvation"):
        sim.run()
    assert sim.events_processed == 50


def test_starvation_guard_fires_for_posted_events_in_step():
    sim = Simulator(max_same_time_events=50)
    for _ in range(60):
        sim.post(1.0, lambda: None)
    with pytest.raises(InvariantViolation, match="starvation"):
        while sim.step():
            pass
    assert sim.events_processed == 51
