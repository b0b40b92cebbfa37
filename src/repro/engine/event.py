"""Event primitives for the discrete-event simulation engine.

The whole simulator is event-driven: components never tick every cycle;
instead they schedule callbacks at the integer cycle where something
observable happens.  This keeps a pure-Python simulation of a quad-core
memory hierarchy tractable.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple


class Event:
    """A scheduled callback.

    Events are created through :meth:`repro.engine.simulator.Engine.schedule`
    and may be cancelled with :meth:`cancel`.  A cancelled event stays in
    the engine's queue but is skipped when popped (lazy deletion), which is
    much cheaper than re-heapifying.  The engine orders its queue on the
    ``(time, seq)`` key it stores beside each event, never on the event.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: Tuple[Any, ...]):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the engine skips it instead of firing it."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time} #{self.seq} {name}{state}>"
