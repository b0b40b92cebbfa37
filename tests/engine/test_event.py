"""Heap entries, handles, and the order events fire in."""

from repro.engine import Engine


def _noop():
    pass


def test_ordering_by_time():
    """A later-scheduled but earlier-timed event fires first."""
    engine = Engine()
    fired = []
    engine.schedule(9, fired.append, "late")
    engine.schedule(5, fired.append, "early")
    assert sorted(time for time, *_ in engine._heap) == [5, 9]
    engine.run()
    assert fired == ["early", "late"]


def test_ties_broken_by_sequence_number():
    """Same-cycle events get increasing handles and fire in that order."""
    engine = Engine()
    fired = []
    first = engine.schedule_at(5, fired.append, "first")
    second = engine.schedule(5, fired.append, "second")
    assert first < second
    engine.run()
    assert fired == ["first", "second"]


def test_cancel_marks_event():
    """Cancelling marks the handle; the entry stays queued until it is
    popped, then it is discarded and the mark dropped."""
    engine = Engine()
    handle = engine.schedule(3, _noop)
    engine.cancel(handle)
    assert engine._cancelled == {handle}
    assert engine.pending == 1
    engine.run()
    assert engine.events_fired == 0
    assert not engine._cancelled and engine.pending == 0


def test_event_carries_args():
    """An entry is a plain ``(time, seq, fn, args)`` tuple."""
    engine = Engine()
    handle = engine.schedule(3, _noop, 1, "x")
    assert engine._heap == [(3, handle, _noop, (1, "x"))]
