"""Watchdog, deadlock detection, and event-budget accounting."""

import pytest

from repro.engine import (
    Engine,
    SimulationDeadlock,
    SimulationError,
    SimulationHang,
    Watchdog,
)


def test_max_events_raises_structured_hang():
    engine = Engine()

    def reschedule():
        engine.schedule(1, reschedule)

    engine.schedule(0, reschedule)
    with pytest.raises(SimulationHang) as excinfo:
        engine.run(watchdog=Watchdog(max_events=100))
    exc = excinfo.value
    assert isinstance(exc, SimulationError)  # old except-sites still catch
    assert exc.events_fired == 100
    assert exc.queue_depth >= 1
    assert "queued" in str(exc)


def test_max_events_budget_is_per_run():
    engine = Engine()
    for t in range(10):
        engine.schedule(t, lambda: None)
    engine.run()
    assert engine.events_fired == 10
    # A fresh run gets a fresh budget: 3 events under a budget of 5.
    for t in range(3):
        engine.schedule(t, lambda: None)
    engine.run(watchdog=Watchdog(max_events=5))
    assert engine.events_fired == 13


def test_cancelled_events_do_not_count_against_budget():
    engine = Engine()
    fired = []
    events = [engine.schedule(t, fired.append, t) for t in range(6)]
    for event in events[:3]:
        engine.cancel(event)
    engine.run(watchdog=Watchdog(max_events=3))  # only the 3 live events count
    assert fired == [3, 4, 5]
    assert engine.events_fired == 3


def test_run_and_step_account_identically():
    run_engine, step_engine = Engine(), Engine()
    for engine in (run_engine, step_engine):
        kept = [engine.schedule(t, lambda: None) for t in range(5)]
        engine.cancel(kept[2])
    run_engine.run()
    while step_engine.step():
        pass
    assert run_engine.events_fired == step_engine.events_fired == 4


def test_watchdog_max_events():
    engine = Engine()

    def reschedule():
        engine.schedule(1, reschedule)

    engine.schedule(0, reschedule)
    with pytest.raises(SimulationHang):
        engine.run(watchdog=Watchdog(max_events=50))


def test_watchdog_max_cycles():
    engine = Engine()
    fired = []
    engine.schedule(5, fired.append, "early")
    engine.schedule(500, fired.append, "late")
    with pytest.raises(SimulationHang) as excinfo:
        engine.run(watchdog=Watchdog(max_cycles=100))
    assert fired == ["early"]
    assert "max_cycles" in str(excinfo.value)


def test_deadlock_detected_when_queue_drains_with_pending_work():
    engine = Engine()
    engine.schedule(10, lambda: None)
    with pytest.raises(SimulationDeadlock) as excinfo:
        engine.run(watchdog=Watchdog(pending_work=lambda: 3))
    exc = excinfo.value
    assert exc.pending_work == 3
    assert exc.cycle == 10
    assert "outstanding" in str(exc)


def test_no_deadlock_when_no_pending_work():
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run(watchdog=Watchdog(pending_work=lambda: 0))
    assert engine.now == 10


def test_no_deadlock_check_when_stopped_early():
    # stop_when returning True is a normal stop, not queue exhaustion:
    # outstanding work is expected mid-simulation.
    engine = Engine()
    fired = []
    for t in range(1, 4):
        engine.schedule(t, fired.append, t)
    engine.run(
        stop_when=lambda: len(fired) >= 1,
        watchdog=Watchdog(pending_work=lambda: 99),
    )
    assert fired == [1]


def test_no_deadlock_check_at_until_deadline():
    engine = Engine()
    engine.schedule(100, lambda: None)
    engine.run(until=10, watchdog=Watchdog(pending_work=lambda: 99))
    assert engine.now == 10
