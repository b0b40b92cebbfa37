"""Unit tests for the Event primitive and the order events fire in."""

from repro.engine import Engine
from repro.engine.event import Event


def _noop():
    pass


def test_ordering_by_time():
    """A later-scheduled but earlier-timed event fires first."""
    engine = Engine()
    fired = []
    late = engine.schedule(9, fired.append, "late")
    early = engine.schedule(5, fired.append, "early")
    assert (early.time, late.time) == (5, 9)
    engine.run()
    assert fired == ["early", "late"]


def test_ties_broken_by_sequence_number():
    """Same-cycle events carry increasing seqs and fire in that order."""
    engine = Engine()
    fired = []
    first = engine.schedule_at(5, fired.append, "first")
    second = engine.schedule(5, fired.append, "second")
    assert first.seq < second.seq
    engine.run()
    assert fired == ["first", "second"]


def test_cancel_marks_event():
    event = Event(0, 0, _noop, ())
    assert not event.cancelled
    event.cancel()
    assert event.cancelled


def test_event_carries_args():
    event = Event(3, 0, _noop, (1, "x"))
    assert event.args == (1, "x")
    assert event.time == 3
