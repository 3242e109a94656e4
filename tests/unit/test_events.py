"""Unit tests for the deterministic event scheduler."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventScheduler


def test_events_fire_in_time_order():
    sched = EventScheduler()
    fired = []
    sched.schedule(3.0, fired.append, "c")
    sched.schedule(1.0, fired.append, "a")
    sched.schedule(2.0, fired.append, "b")
    sched.run()
    assert fired == ["a", "b", "c"]
    assert sched.now == 3.0


def test_ties_break_by_schedule_order():
    sched = EventScheduler()
    fired = []
    for name in "abc":
        sched.schedule(1.0, fired.append, name)
    sched.run()
    assert fired == ["a", "b", "c"]


def test_cancel_prevents_firing():
    sched = EventScheduler()
    fired = []
    handle = sched.schedule(1.0, fired.append, "x")
    sched.schedule(2.0, fired.append, "y")
    handle.cancel()
    handle.cancel()  # idempotent
    sched.run()
    assert fired == ["y"]


def test_events_scheduled_during_events():
    sched = EventScheduler()
    fired = []

    def cascade():
        fired.append("outer")
        sched.schedule(1.0, fired.append, "inner")

    sched.schedule(1.0, cascade)
    sched.run()
    assert fired == ["outer", "inner"]
    assert sched.now == 2.0


def test_run_until_stops_and_advances_clock():
    sched = EventScheduler()
    fired = []
    sched.schedule(1.0, fired.append, "a")
    sched.schedule(5.0, fired.append, "b")
    sched.run(until=3.0)
    assert fired == ["a"]
    assert sched.now == 3.0
    sched.run()
    assert fired == ["a", "b"]


def test_cannot_schedule_in_the_past():
    sched = EventScheduler()
    sched.schedule(1.0, lambda: None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.schedule_at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        sched.schedule(-1.0, lambda: None)


def test_step_returns_false_when_idle():
    sched = EventScheduler()
    assert sched.step() is False
    sched.schedule(1.0, lambda: None)
    assert sched.step() is True
    assert sched.step() is False


def test_run_until_idle_guards_against_runaway():
    sched = EventScheduler()

    def forever():
        sched.schedule(1.0, forever)

    sched.schedule(1.0, forever)
    with pytest.raises(SimulationError):
        sched.run_until_idle(max_events=100)


def test_events_fired_counter():
    sched = EventScheduler()
    for _ in range(5):
        sched.schedule(1.0, lambda: None)
    sched.run()
    assert sched.events_fired == 5


def test_cancelled_entries_are_compacted_and_order_is_kept():
    sched = EventScheduler()
    fired = []
    handles = [sched.schedule(0.001 * (i % 7), fired.append, i) for i in range(100)]
    for handle in handles[::3] + handles[1::3]:
        handle.cancel()
    # 67 cancelled against 33 live: the dead entries went the moment
    # they outnumbered the live ones.
    assert sched.pending < 67
    sched.run()
    live = [i for i in range(100) if i % 3 == 2]
    assert fired == sorted(live, key=lambda i: (i % 7, i))
    assert sched.pending == 0


def test_cancel_from_inside_a_running_event_compacts_safely():
    sched = EventScheduler()
    fired = []
    later = [sched.schedule(2.0, fired.append, i) for i in range(10)]

    def cancel_most() -> None:
        for handle in later[:8]:
            handle.cancel()
        sched.schedule(0.5, fired.append, "after")

    sched.schedule(1.0, cancel_most)
    sched.run()
    assert fired == ["after", 8, 9]
