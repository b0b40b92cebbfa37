"""The discrete-event simulation engine.

One :class:`Engine` instance drives a whole simulated machine.  Time is an
integer number of CPU cycles (3.333 GHz in the paper's configuration; the
engine itself is unit-agnostic).

The queue is a binary heap of plain ``(time, seq, fn, args)`` tuples,
one allocation per scheduled callback.  ``seq`` is unique, so ordering
is one C-level tuple compare that never reaches ``fn``: global
``(time, seq)`` order, FIFO within a cycle.  ``schedule`` returns the
``seq`` as the event's handle.  Cancellation is lazy:
:meth:`Engine.cancel` marks the handle, and a marked entry is discarded
when it reaches the top, without advancing time or counting against
any budget.

``schedule``/``schedule_at`` are the checked entry points (no time in
the past).  :class:`~repro.cpu.core.Core` pushes its own per-reference
events onto ``_heap`` with the next ``seq``, at times ``>= now`` by
construction; nothing else touches the heap.  Times are ints from the
caller: neither entry point coerces.

``Engine.run`` accepts an optional :class:`Watchdog` that bounds a run by
event and cycle budgets and detects *deadlock*: the queue draining while
the machine still has outstanding work (an MSHR entry or memory-controller
queue slot whose completion callback was dropped).

``run``/``step`` must not be re-entered from inside an event callback,
and a machine snapshot refuses to run there (``_running`` is set for
the whole drain).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Set, Tuple

from ..common.errors import SimulationDeadlock, SimulationError, SimulationHang

__all__ = ["Engine", "SimulationDeadlock", "SimulationError", "SimulationHang", "Watchdog"]


@dataclass
class Watchdog:
    """Progress limits for one :meth:`Engine.run` call.

    Attributes:
        max_events: budget of fired events for this run; exceeding it
            raises :class:`SimulationHang`.
        max_cycles: absolute cycle ceiling; an event scheduled beyond it
            raises :class:`SimulationHang` instead of firing.
        pending_work: probe returning the machine's outstanding request
            count (MSHR entries + controller queues).  When the event
            queue drains while this returns non-zero, the run raises
            :class:`SimulationDeadlock` — the simulation can never
            finish because nothing is scheduled to finish it.
    """

    max_events: Optional[int] = None
    max_cycles: Optional[int] = None
    pending_work: Optional[Callable[[], int]] = None


class Engine:
    """An integer-time discrete-event simulator over one binary heap.

    Components schedule callbacks with :meth:`schedule` (relative delay)
    or :meth:`schedule_at` (absolute cycle); :meth:`run` drains them.
    Both return an integer handle for :meth:`cancel`.
    """

    # Every hot path reads engine state (`now` above all); slot storage
    # turns those per-event dict probes into index loads.
    __slots__ = (
        "_heap", "now", "_seq", "_cancelled", "_events_fired", "_stop", "_running"
    )

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Callable[..., Any], Tuple[Any, ...]]] = []
        # Current cycle: a plain attribute because hot paths read it
        # constantly; read-only outside the engine.
        self.now = 0
        self._seq = 0
        # Handles of queued entries to discard instead of firing.
        self._cancelled: Set[int] = set()
        self._events_fired = 0
        self._stop = False
        self._running = False  # inside run(): a snapshot refuses

    @property
    def events_fired(self) -> int:
        """Total number of callbacks executed so far (for diagnostics)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> int:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay, seq, fn, args))
        return seq

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> int:
        """Schedule ``fn(*args)`` at absolute cycle ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at cycle {time}; current time is {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, fn, args))
        return seq

    def cancel(self, handle: int) -> None:
        """Discard the queued entry ``handle`` instead of firing it.

        Only a handle still queued may be cancelled: the mark is dropped
        when its entry leaves the heap, so a handle that already fired
        would stay marked for good.
        """
        self._cancelled.add(handle)

    def request_stop(self) -> None:
        """Stop the active :meth:`run` once the current callback returns:
        the free alternative to a ``stop_when`` predicate polled per event,
        called by the component that completes the condition."""
        self._stop = True

    def step(self) -> bool:
        """Fire the next non-cancelled event.

        Returns ``False`` when the queue is empty, ``True`` otherwise.
        """
        fired = self._events_fired
        self.run(stop_when=lambda: True)
        return self._events_fired != fired

    def run(
        self,
        until: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
        watchdog: Optional[Watchdog] = None,
    ) -> None:
        """Drain the event queue.

        Args:
            until: stop (without firing) events scheduled after this cycle;
                time is advanced to ``until`` when the deadline is reached.
            stop_when: predicate checked after every event; prefer
                :meth:`request_stop` from a callback.
            watchdog: event/cycle budgets and deadlock detection for this
                run.
        """
        watchdog = watchdog or Watchdog()
        budget, max_cycles = watchdog.max_events, watchdog.max_cycles
        pending_work = watchdog.pending_work
        bounds = [b for b in (until, max_cycles) if b is not None]
        limit = min(bounds) if bounds else float("inf")
        self._stop = False
        heap = self._heap
        cancelled = self._cancelled
        # The fired counter lives in a local for the drain and is written
        # back on every exit; budgets count from this run's start.
        start = fired = self._events_fired
        stop_at = -1 if budget is None else start + max(budget, 0)
        # Pause the cyclic collector for the drain: everything the loop
        # allocates dies by reference counting, so gen-0 passes only
        # re-walk young survivors.  Restored, never force-enabled.  A
        # finished machine is cyclic garbage; ``run_workload`` collects it.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        self._running = True
        try:
            while heap:
                time, seq, fn, args = heappop(heap)
                if cancelled and seq in cancelled:
                    cancelled.remove(seq)
                    continue
                if time > limit or fired == stop_at:
                    # A bound is hit: the event stays queued for a later run.
                    heappush(heap, (time, seq, fn, args))
                    if until is not None and time > until:
                        self.now = until
                        return
                    raise self._hang(time, max_cycles, budget, fired - start)
                self.now = time
                fired += 1
                fn(*args)
                if self._stop or (stop_when is not None and stop_when()):
                    return
        finally:
            self._events_fired = fired
            self._running = False
            if gc_was_enabled:
                gc.enable()
        if pending_work is not None:
            outstanding = pending_work()
            if outstanding:
                raise SimulationDeadlock(
                    f"event queue drained at cycle {self.now} with "
                    f"{outstanding} outstanding requests still in flight "
                    "(a completion callback was lost)",
                    cycle=self.now,
                    pending_work=outstanding,
                )
        if until is not None and self.now < until:
            self.now = until

    def _hang(self, time, max_cycles, budget, fired: int) -> SimulationHang:
        """The watchdog verdict for a live event blocked at ``time``."""
        if max_cycles is not None and time > max_cycles:
            message = (
                f"exceeded max_cycles={max_cycles}: next event at cycle "
                f"{time} with {self.pending} events queued and {fired} "
                "fired this run"
            )
        else:
            message = (
                f"exceeded max_events={budget} at cycle {self.now} "
                f"with {self.pending} events still queued"
            )
        return SimulationHang(
            message, cycle=self.now, events_fired=fired, queue_depth=self.pending
        )

