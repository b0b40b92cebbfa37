"""Lazy cancellation: cancelled events never fire and never advance time.

A cancelled event stays queued until it reaches the top of the heap,
where ``run()`` and ``step()`` alike discard it without touching ``now``,
the fired counter, or event budgets.
"""

import pytest

from repro.engine import Engine, SimulationHang, Watchdog


def test_cancelled_events_never_advance_now_in_step():
    engine = Engine()
    engine.cancel(engine.schedule(5, lambda: None))
    engine.schedule(10, lambda: None)
    assert engine.step() is True  # fires the live event at t=10 directly
    assert engine.now == 10
    assert engine.events_fired == 1


def test_all_cancelled_queue_drains_without_time_motion():
    engine = Engine()
    for delay in (3, 7, 7, 900):
        engine.cancel(engine.schedule(delay, lambda: None))
    assert engine.step() is False
    assert engine.now == 0
    assert engine.events_fired == 0
    engine.run()
    assert engine.now == 0


def test_cancelled_events_never_advance_now_in_run():
    engine = Engine()
    times = []
    engine.cancel(engine.schedule(4, lambda: None))
    engine.schedule(8, lambda: times.append(engine.now))
    engine.cancel(engine.schedule(6, lambda: None))
    engine.run()
    assert times == [8]
    assert engine.now == 8
    assert engine.events_fired == 1


def test_cancelled_events_do_not_consume_budget():
    engine = Engine()
    fired = []
    for i in range(10):
        event = engine.schedule(1 + i, fired.append, i)
        if i % 2:
            engine.cancel(event)
    engine.run(watchdog=Watchdog(max_events=5))  # exactly the 5 live events
    assert fired == [0, 2, 4, 6, 8]


def test_cancelled_same_cycle_siblings_are_skipped_in_batch():
    """Within one cycle, cancels interleaved with live events."""
    engine = Engine()
    fired = []
    events = [engine.schedule(5, fired.append, i) for i in range(6)]
    engine.cancel(events[0])
    engine.cancel(events[3])
    engine.cancel(events[5])
    engine.run()
    assert fired == [1, 2, 4]
    assert engine.now == 5


def test_cancel_from_inside_same_cycle_batch():
    """An event cancelling a later same-cycle sibling prevents its firing."""
    engine = Engine()
    fired = []
    holder = {}

    def killer():
        fired.append("killer")
        engine.cancel(holder["victim"])

    engine.schedule(3, killer)
    holder["victim"] = engine.schedule(3, fired.append, "victim")
    engine.schedule(3, fired.append, "survivor")
    engine.run()
    assert fired == ["killer", "survivor"]


# ----------------------------------------------------------------------
# The *last* live event at the current cycle gets cancelled: it must be
# discarded without firing, and time must never move.
# ----------------------------------------------------------------------
def test_cancel_last_event_in_current_cycle_slot_after_step():
    engine = Engine()
    fired = []
    engine.schedule(5, fired.append, "a")
    leftover = engine.schedule(5, fired.append, "b")
    assert engine.step() is True  # fires "a"; "b" stays queued
    assert engine.now == 5
    engine.cancel(leftover)  # now the last event at the current cycle
    assert engine.step() is False
    assert engine.now == 5
    assert fired == ["a"]
    assert engine.pending == 0


def test_cancel_current_cycle_leftover_then_run_to_later_event():
    engine = Engine()
    fired = []
    engine.schedule(5, fired.append, "a")
    leftover = engine.schedule(5, fired.append, "b")
    engine.step()
    engine.cancel(leftover)
    engine.schedule(20, fired.append, "c")  # cycle 25
    engine.run()
    assert fired == ["a", "c"]
    assert engine.now == 25
    assert engine.pending == 0


def test_cancel_event_spawned_into_current_cycle_during_batch():
    """A delay-0 event born and killed inside the same cycle: it is
    discarded without firing anything or advancing time."""
    engine = Engine()
    fired = []
    holder = {}

    def spawner():
        fired.append("spawner")
        holder["victim"] = engine.schedule(0, fired.append, "victim")

    def killer():
        fired.append("killer")
        engine.cancel(holder["victim"])

    engine.schedule(3, spawner)
    engine.schedule(3, killer)
    engine.run()
    assert fired == ["spawner", "killer"]
    assert engine.now == 3
    assert engine.pending == 0


def test_cancelled_only_event_before_until_deadline():
    engine = Engine()
    fired = []
    engine.cancel(engine.schedule(10, fired.append, "early"))
    engine.schedule(100, fired.append, "late")
    engine.run(until=50)
    assert fired == []
    assert engine.now == 50
    engine.run()
    assert fired == ["late"]
    assert engine.now == 100


def test_cancel_after_until_bound_unpop():
    """Cancel an event that an `until` stop left queued: the next run
    discards it without firing or advancing time."""
    engine = Engine()
    fired = []
    engine.schedule(10, fired.append, "a")
    engine.cancel(engine.schedule(60, lambda: None))
    blocked = engine.schedule(100, fired.append, "blocked")
    engine.run(until=50)
    assert fired == ["a"]
    assert engine.now == 50
    engine.cancel(blocked)
    engine.run()
    assert fired == ["a"]
    assert engine.now == 50  # drained without firing or advancing
    assert engine.pending == 0


def test_stop_requeued_tail_entirely_cancelled():
    """request_stop() leaves the same-cycle tail queued; if the tail is
    all cancelled, the next run must discard it without firing."""
    engine = Engine()
    fired = []
    holder = {}

    def killer():
        fired.append("killer")
        engine.cancel(holder["victim"])
        engine.request_stop()

    engine.schedule(3, killer)
    holder["victim"] = engine.schedule(3, fired.append, "victim")
    engine.run()
    assert fired == ["killer"]
    assert engine.pending == 1  # the cancelled tail is still queued
    engine.run()
    assert fired == ["killer"]
    assert engine.now == 3
    assert engine.pending == 0


def test_budgeted_batch_skips_cancelled_last_event():
    engine = Engine()
    fired = []
    events = [engine.schedule(4, fired.append, i) for i in range(4)]
    engine.cancel(events[3])  # last event at the cycle
    engine.run(watchdog=Watchdog(max_events=3))  # budget covers exactly the live events
    assert fired == [0, 1, 2]
    assert engine.now == 4
    assert engine.pending == 0


def test_budget_exhaustion_requeues_cancelled_tail():
    engine = Engine()
    fired = []
    events = [engine.schedule(4, fired.append, i) for i in range(4)]
    engine.cancel(events[2])
    with pytest.raises(SimulationHang):
        engine.run(watchdog=Watchdog(max_events=1))
    assert fired == [0]
    assert engine.pending == 3  # the blocked event stays queued
    engine.run()
    assert fired == [0, 1, 3]
    assert engine.now == 4
    assert engine.pending == 0
