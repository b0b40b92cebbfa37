"""Edge-case tests for the event engine."""

import pytest

from repro.engine import Engine, SimulationError


def test_cancel_from_within_a_callback():
    engine = Engine()
    fired = []
    later = engine.schedule(10, fired.append, "later")

    def canceller():
        engine.cancel(later)
        fired.append("canceller")

    engine.schedule(5, canceller)
    engine.run()
    assert fired == ["canceller"]


def test_exception_in_callback_propagates_and_preserves_time():
    engine = Engine()

    def boom():
        raise RuntimeError("injected failure")

    engine.schedule(7, boom)
    engine.schedule(9, lambda: None)
    with pytest.raises(RuntimeError, match="injected failure"):
        engine.run()
    # Time advanced to the failing event; the queue still holds the rest.
    assert engine.now == 7
    assert engine.pending == 1
    engine.run()  # recovery: remaining events still run
    assert engine.now == 9


def test_reschedule_same_callback_many_times():
    engine = Engine()
    count = [0]

    def tick():
        count[0] += 1

    events = [engine.schedule(1, tick) for _ in range(100)]
    for event in events[::2]:
        engine.cancel(event)
    engine.run()
    assert count[0] == 50


def test_stop_when_true_immediately_fires_exactly_one_event():
    engine = Engine()
    fired = []
    engine.schedule(1, fired.append, 1)
    engine.schedule(2, fired.append, 2)
    engine.run(stop_when=lambda: True)
    assert fired == [1]


def test_until_exactly_at_event_time_fires_it():
    engine = Engine()
    fired = []
    engine.schedule(10, fired.append, "x")
    engine.run(until=10)
    assert fired == ["x"]


def test_schedule_at_current_time_during_callback():
    engine = Engine()
    order = []

    def first():
        order.append("first")
        engine.schedule_at(engine.now, lambda: order.append("same-cycle"))

    engine.schedule(5, first)
    engine.schedule(5, lambda: order.append("second"))
    engine.run()
    # The same-cycle event runs after already-queued time-5 events (FIFO).
    assert order == ["first", "second", "same-cycle"]


def test_max_events_none_means_unbounded():
    engine = Engine()
    for _ in range(1000):
        engine.schedule(1, lambda: None)
    engine.run()  # must not raise
    assert engine.events_fired == 1000
