"""Unit tests for the discrete-event engine."""

import pytest

from repro.engine import Engine, SimulationError, Watchdog


def test_time_starts_at_zero():
    assert Engine().now == 0


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule(30, fired.append, "c")
    engine.schedule(10, fired.append, "a")
    engine.schedule(20, fired.append, "b")
    engine.run()
    assert fired == ["a", "b", "c"]
    assert engine.now == 30


def test_same_cycle_events_fire_fifo():
    engine = Engine()
    fired = []
    for tag in range(5):
        engine.schedule(7, fired.append, tag)
    engine.run()
    assert fired == [0, 1, 2, 3, 4]


def test_schedule_in_past_raises():
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(5, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    event = engine.schedule(5, fired.append, "no")
    engine.schedule(6, fired.append, "yes")
    engine.cancel(event)
    engine.run()
    assert fired == ["yes"]


def test_run_until_stops_before_later_events():
    engine = Engine()
    fired = []
    engine.schedule(5, fired.append, "early")
    engine.schedule(50, fired.append, "late")
    engine.run(until=10)
    assert fired == ["early"]
    assert engine.now == 10
    engine.run()
    assert fired == ["early", "late"]


def test_run_until_advances_time_with_empty_queue():
    engine = Engine()
    engine.run(until=123)
    assert engine.now == 123


def test_stop_when_predicate_halts_run():
    engine = Engine()
    fired = []
    for t in range(1, 6):
        engine.schedule(t, fired.append, t)
    engine.run(stop_when=lambda: len(fired) >= 3)
    assert fired == [1, 2, 3]
    engine.run()
    assert fired == [1, 2, 3, 4, 5]


def test_max_events_guard():
    engine = Engine()

    def reschedule():
        engine.schedule(1, reschedule)

    engine.schedule(0, reschedule)
    with pytest.raises(SimulationError):
        engine.run(watchdog=Watchdog(max_events=100))


def test_events_scheduled_during_run_fire():
    engine = Engine()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            engine.schedule(1, chain, depth + 1)

    engine.schedule(0, chain, 0)
    engine.run()
    assert fired == [0, 1, 2, 3]
    assert engine.now == 3


def test_step_returns_false_on_empty_queue():
    engine = Engine()
    assert engine.step() is False
    engine.schedule(1, lambda: None)
    assert engine.step() is True
    assert engine.step() is False


def test_events_fired_counter():
    engine = Engine()
    for _ in range(4):
        engine.schedule(1, lambda: None)
    engine.run()
    assert engine.events_fired == 4


def test_zero_delay_event_fires_at_current_time():
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run()
    fired_at = []
    engine.schedule(0, lambda: fired_at.append(engine.now))
    engine.run()
    assert fired_at == [10]
