"""The discrete-event simulation engine.

One :class:`Engine` instance drives a whole simulated machine.  Time is an
integer number of CPU cycles (3.333 GHz in the paper's configuration; the
engine itself is unit-agnostic).

``Engine`` is a hybrid calendar queue: events scheduled within ``horizon``
cycles of the current time — the bank/bus/MSHR latencies that dominate a
memory-system simulation — go into a timing wheel indexed by ``time mod
horizon``, where insertion is a list append and extraction is a short
linear scan from the current cycle's slot.  Because the scan cursor only
moves forward with simulated time, the whole wheel costs at most one
probe per simulated cycle regardless of how many events fire.  Events
beyond the horizon (refresh periods, watchdog deadlines) fall back to a
binary heap.  Firing order is bit-identical to a plain heap: global
(time, seq) order, FIFO within a cycle, lazy cancellation —
:class:`HeapEngine` keeps the reference implementation and the
determinism tests cross-check the two.

``Engine.run`` accepts an optional :class:`Watchdog` that bounds a run by
event and cycle budgets and detects *deadlock*: the queue draining while
the machine still has outstanding work (an MSHR entry or memory-controller
queue slot whose completion callback was dropped).

One caveat the heap engine does not have: ``run``/``step`` must not be
re-entered from inside an event callback — same-cycle events are fired as
a detached batch, which a nested run cannot see.  Nothing in the
simulator does this; use :class:`HeapEngine` if an experiment needs it.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

from ..common.errors import (
    SimulationDeadlock,
    SimulationError,
    SimulationHang,
    SnapshotError,
)
from ..common.versioning import check_state_version
from .event import Event

__all__ = [
    "Engine",
    "HeapEngine",
    "SimulationDeadlock",
    "SimulationError",
    "SimulationHang",
    "Watchdog",
]

# Bypasses Event.__init__ on the schedule fast path; plain attribute
# stores on the fresh instance are measurably cheaper than the call.
_NEW_EVENT = Event.__new__


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
    """An integer-time discrete-event simulator (calendar queue + heap).

    Components schedule callbacks with :meth:`schedule` (relative delay)
    or :meth:`schedule_at` (absolute cycle).  :meth:`run` drains the event
    queue until a stop condition, an optional deadline, or queue
    exhaustion.
    """

    #: Cycles covered by the timing wheel.  Must be a power of two.  512
    #: comfortably covers every constant latency in the machine model
    #: (tRC at CPU clock is ~184 cycles, tRFC ~425); only refresh-period
    #: and watchdog-scale events take the heap path.
    DEFAULT_HORIZON = 512

    #: Compact the far-future heap once at least this many cancelled
    #: events are in it *and* they make up half the heap — lazy deletion
    #: then stops growing the heap unboundedly under cancel-heavy loads.
    COMPACT_MIN_CANCELLED = 64

    # Every hot path reads engine state (`now` above all); slot storage
    # turns those per-event dict probes into index loads.
    __slots__ = (
        "_horizon",
        "_mask",
        "_wheel",
        "_wheel_count",
        "_heap",
        "_heap_cancelled",
        "now",
        "_seq",
        "_events_fired",
        "_stop",
        "_active_batch",
    )

    def __init__(self, horizon: int = DEFAULT_HORIZON) -> None:
        if horizon < 2 or horizon & (horizon - 1):
            raise SimulationError(
                f"wheel horizon must be a power of two >= 2, got {horizon}"
            )
        self._horizon = horizon
        self._mask = horizon - 1
        # wheel[time & mask] holds the events for one upcoming cycle, in
        # scheduling (seq) order; None marks an empty slot.  Within the
        # [now, now + horizon) window each slot maps to exactly one cycle.
        self._wheel: List[Optional[List[Event]]] = [None] * horizon
        self._wheel_count = 0  # events resident in the wheel (incl. cancelled)
        self._heap: List[Event] = []  # events >= horizon cycles away
        self._heap_cancelled = 0  # cancelled events still inside the heap
        # Current simulation time in cycles.  A plain attribute rather
        # than a property because hot paths read it constantly; treat it
        # as read-only -- only the engine assigns it.
        self.now = 0
        self._seq = 0
        self._events_fired = 0
        self._stop = False
        # The detached same-cycle batch currently being fired; non-None
        # only inside a callback, where capture_state refuses to run.
        self._active_batch: Optional[List[Event]] = None

    @property
    def events_fired(self) -> int:
        """Total number of callbacks executed so far (for diagnostics)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return self._wheel_count + len(self._heap)

    @property
    def horizon(self) -> int:
        """Width of the timing-wheel window in cycles."""
        return self._horizon

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        event = _NEW_EVENT(Event)
        event.time = time = int(self.now + delay)
        event.seq = seq = self._seq
        self._seq = seq + 1
        event.fn = fn
        event.args = args
        event.cancelled = False
        if delay < self._horizon:
            idx = time & self._mask
            bucket = self._wheel[idx]
            if bucket is None:
                self._wheel[idx] = [event]
            else:
                bucket.append(event)
            self._wheel_count += 1
        else:
            event.heap_owner = self
            heappush(self._heap, event)
        return event

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute cycle ``time``."""
        time = int(time)
        now = self.now
        if time < now:
            raise SimulationError(
                f"cannot schedule at cycle {time}; current time is {now}"
            )
        event = _NEW_EVENT(Event)
        event.time = time
        event.seq = seq = self._seq
        self._seq = seq + 1
        event.fn = fn
        event.args = args
        event.cancelled = False
        if time - now < self._horizon:
            idx = time & self._mask
            bucket = self._wheel[idx]
            if bucket is None:
                self._wheel[idx] = [event]
            else:
                bucket.append(event)
            self._wheel_count += 1
        else:
            event.heap_owner = self
            heappush(self._heap, event)
        return event

    # ------------------------------------------------------------------
    # Cancellation compaction
    # ------------------------------------------------------------------
    def _note_heap_cancel(self) -> None:
        """A heap-resident event was cancelled (called by Event.cancel).

        Wheel slots recycle within one horizon, so lazily-deleted wheel
        events are short-lived; only the heap can accumulate them without
        bound.  Once cancelled events reach half the heap it is rebuilt
        without them.
        """
        self._heap_cancelled = cancelled = self._heap_cancelled + 1
        if cancelled >= self.COMPACT_MIN_CANCELLED and cancelled * 2 >= len(self._heap):
            self._compact_heap()

    def _compact_heap(self) -> None:
        # In place: run() holds a local alias to the heap list.
        heap = self._heap
        heap[:] = [event for event in heap if not event.cancelled]
        heapify(heap)
        self._heap_cancelled = 0

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def _pop_live(self) -> Optional[Event]:
        """Remove and return the next live event; None when drained.

        The single place where lazy cancellation is resolved outside the
        batch loop: cancelled events found while scanning the wheel or at
        the top of the heap are discarded, never advancing time or
        counting against budgets.  Ties between the wheel and the heap
        break on sequence number, so same-cycle events fire in scheduling
        order no matter which side they were queued on.
        """
        wheel_event = None
        count = self._wheel_count
        if count:
            wheel = self._wheel
            mask = self._mask
            idx = self.now & mask
            bucket = None
            for _ in range(self._horizon + 1):
                bucket = wheel[idx]
                if bucket is not None:
                    while bucket:
                        event = bucket[0]
                        if event.cancelled:
                            del bucket[0]
                            count -= 1
                        else:
                            wheel_event = event
                            break
                    if wheel_event is not None:
                        break
                    # Slot held only cancelled leftovers: release it.
                    wheel[idx] = None
                    if not count:
                        break
                idx = (idx + 1) & mask
            else:  # pragma: no cover - guards a broken count invariant
                raise SimulationError(
                    f"wheel count {count} does not match wheel contents"
                )
            self._wheel_count = count
        heap = self._heap
        while heap:
            heap_event = heap[0]
            if heap_event.cancelled:
                heappop(heap).heap_owner = None
                self._heap_cancelled -= 1
                continue
            if wheel_event is not None and (
                wheel_event.time < heap_event.time
                or (wheel_event.time == heap_event.time
                    and wheel_event.seq < heap_event.seq)
            ):
                break
            heappop(heap).heap_owner = None
            return heap_event
        if wheel_event is None:
            return None
        del bucket[0]
        if not bucket:
            self._wheel[idx] = None
        self._wheel_count -= 1
        return wheel_event

    def _unpop(self, event: Event) -> None:
        """Reinsert a just-popped event at the front of the queue.

        Used when a bound (``until``, watchdog) is hit after extraction:
        the event must stay queued for a later run, ahead of any
        same-cycle siblings it was popped before.
        """
        if event.time - self.now < self._horizon:
            idx = event.time & self._mask
            bucket = self._wheel[idx]
            if bucket is None:
                self._wheel[idx] = [event]
            else:
                bucket.insert(0, event)
            self._wheel_count += 1
        else:
            event.heap_owner = self
            heappush(self._heap, event)

    def _requeue_rest(self, batch: List[Event], fired: Event, idx: int) -> None:
        """Put the unfired tail of a detached batch back on the wheel.

        ``fired`` is the last event that executed (the batch walk stopped
        right after it, on a stop request or an exception escaping its
        callback).  Later same-cycle arrivals may already occupy the
        slot; the tail goes in front of them, preserving seq order.
        """
        rest = batch[batch.index(fired) + 1:]
        if rest:
            self._wheel_count += len(rest)
            existing = self._wheel[idx]
            if existing is not None:
                rest.extend(existing)
            self._wheel[idx] = rest

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Stop the active :meth:`run` once the current callback returns.

        The cheap alternative to a ``stop_when`` predicate: instead of
        the engine polling a condition after every event, the component
        that completes the condition (e.g. the last core freezing) calls
        this from inside its callback.
        """
        self._stop = True

    def step(self) -> bool:
        """Fire the next non-cancelled event.

        Returns ``False`` when the queue is empty, ``True`` otherwise.
        """
        event = self._pop_live()
        if event is None:
            return False
        self.now = event.time
        self._events_fired += 1
        event.fn(*event.args)
        return True

    def run(
        self,
        until: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
        max_events: Optional[int] = None,
        watchdog: Optional[Watchdog] = None,
    ) -> None:
        """Drain the event queue.

        Args:
            until: stop (without firing) events scheduled after this cycle;
                time is advanced to ``until`` when the deadline is reached.
            stop_when: predicate checked after every event; the run stops
                as soon as it returns ``True``.  Prefer
                :meth:`request_stop` from a callback — a predicate forces
                the slower one-event-at-a-time path.
            max_events: safety valve against runaway simulations
                (shorthand for ``Watchdog(max_events=...)``).
            watchdog: event/cycle budgets and deadlock detection for this
                run; combines with ``max_events`` (tighter budget wins).
        """
        budget = max_events
        max_cycles = None
        pending_work = None
        if watchdog is not None:
            if watchdog.max_events is not None:
                budget = (
                    watchdog.max_events
                    if budget is None
                    else min(budget, watchdog.max_events)
                )
            max_cycles = watchdog.max_cycles
            pending_work = watchdog.pending_work
        self._stop = False
        # Budgets are measured against the engine-wide events_fired
        # counter so run() and step() account identically; cancelled
        # events never increment it in either path.
        start_fired = self._events_fired
        # Pause the cyclic collector for the drain.  The hot loop's
        # allocations (events, callback closures, pooled requests) are
        # all freed by reference counting the moment they retire, so
        # gen-0 passes find nothing to reclaim yet still walk the young
        # survivors at every threshold crossing — pure overhead that
        # does not affect simulated behaviour.  Restored (never force-
        # enabled) on exit so callers that run with GC off stay off.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if stop_when is None:
                drained = self._run_batched(
                    until, max_cycles, budget, start_fired
                )
            else:
                drained = self._run_polled(
                    until, stop_when, max_cycles, budget, start_fired
                )
        finally:
            if gc_was_enabled:
                gc.enable()
        if not drained:
            return
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

    def _run_batched(
        self,
        until: Optional[int],
        max_cycles: Optional[int],
        budget: Optional[int],
        start_fired: int,
    ) -> bool:
        """The hot loop: fire whole same-cycle wheel slots as batches.

        Returns True when the queue drained naturally (the caller then
        applies the deadlock check), False on an early stop.
        """
        wheel = self._wheel
        mask = self._mask
        heap = self._heap
        pop_live = self._pop_live
        while True:
            if self._wheel_count:
                cursor = self.now & mask
                bucket = wheel[cursor]
                while bucket is None:
                    cursor = (cursor + 1) & mask
                    bucket = wheel[cursor]
                front = bucket[0]
                time = front.time
                if not (front.cancelled or (heap and heap[0].time <= time)):
                    if until is not None and time > until:
                        self.now = until
                        return False
                    if max_cycles is not None and time > max_cycles:
                        raise SimulationHang(
                            f"exceeded max_cycles={max_cycles}: next event at "
                            f"cycle {time} with {self.pending} events queued "
                            f"and {self._events_fired - start_fired} fired "
                            "this run",
                            cycle=self.now,
                            events_fired=self._events_fired - start_fired,
                            queue_depth=self.pending,
                        )
                    # Detach the slot and fire it as a batch: every live
                    # event in it shares `time` (slot <-> cycle is unique
                    # within the horizon window), and the heap holds
                    # nothing due before `time`.  New same-cycle events
                    # scheduled by these callbacks form a fresh bucket in
                    # the same slot, picked up on the next outer pass.
                    wheel[cursor] = None
                    self._wheel_count -= len(bucket)
                    if budget is None:
                        self.now = time
                        event = front
                        # The fired count is kept in a local and flushed
                        # once per batch; the finally also covers the
                        # exception path so diagnostics stay exact.
                        fired = self._events_fired
                        self._active_batch = bucket
                        try:
                            for event in bucket:
                                if not event.cancelled:
                                    fired += 1
                                    event.fn(*event.args)
                                    if self._stop:
                                        self._requeue_rest(bucket, event, cursor)
                                        return False
                        except BaseException:
                            self._requeue_rest(bucket, event, cursor)
                            raise
                        finally:
                            self._events_fired = fired
                            self._active_batch = None
                    elif not self._fire_budgeted_batch(
                        bucket, cursor, time, budget, start_fired
                    ):
                        return False
                    continue
            elif not heap:
                return True
            # Cold branch: the next event is in the heap, or the wheel
            # front is a lazily-cancelled leftover.  One event at a time.
            event = pop_live()
            if event is None:
                return True
            time = event.time
            if until is not None and time > until:
                self._unpop(event)
                self.now = until
                return False
            if max_cycles is not None and time > max_cycles:
                self._unpop(event)
                raise SimulationHang(
                    f"exceeded max_cycles={max_cycles}: next event at cycle "
                    f"{time} with {self.pending} events queued and "
                    f"{self._events_fired - start_fired} fired this run",
                    cycle=self.now,
                    events_fired=self._events_fired - start_fired,
                    queue_depth=self.pending,
                )
            if budget is not None and self._events_fired - start_fired >= budget:
                self._unpop(event)
                raise SimulationHang(
                    f"exceeded max_events={budget} at cycle {self.now} "
                    f"with {self.pending} events still queued",
                    cycle=self.now,
                    events_fired=self._events_fired - start_fired,
                    queue_depth=self.pending,
                )
            self.now = time
            self._events_fired += 1
            event.fn(*event.args)
            if self._stop:
                return False

    def _fire_budgeted_batch(
        self,
        bucket: List[Event],
        cursor: int,
        time: int,
        budget: int,
        start_fired: int,
    ) -> bool:
        """Fire a detached batch under an event budget.

        Returns False on a stop request; raises :class:`SimulationHang`
        (with the blocked event requeued) when the budget runs out.
        ``self.now`` only advances once the first event actually fires,
        so a budget exhausted at the batch boundary reports the previous
        event's cycle, exactly as the heap engine does.
        """
        idx = 0
        self._active_batch = bucket
        try:
            while idx < len(bucket):
                event = bucket[idx]
                idx += 1
                if event.cancelled:
                    continue
                if self._events_fired - start_fired >= budget:
                    rest = bucket[idx - 1:]
                    self._wheel_count += len(rest)
                    existing = self._wheel[cursor]
                    if existing is not None:
                        rest.extend(existing)
                    self._wheel[cursor] = rest
                    raise SimulationHang(
                        f"exceeded max_events={budget} at cycle {self.now} "
                        f"with {self.pending} events still queued",
                        cycle=self.now,
                        events_fired=self._events_fired - start_fired,
                        queue_depth=self.pending,
                    )
                self.now = time
                self._events_fired += 1
                try:
                    event.fn(*event.args)
                except BaseException:
                    self._requeue_rest(bucket, event, cursor)
                    raise
                if self._stop:
                    self._requeue_rest(bucket, event, cursor)
                    return False
            return True
        finally:
            self._active_batch = None

    def _run_polled(
        self,
        until: Optional[int],
        stop_when: Callable[[], bool],
        max_cycles: Optional[int],
        budget: Optional[int],
        start_fired: int,
    ) -> bool:
        """One-event-at-a-time loop for runs with a stop predicate."""
        pop_live = self._pop_live
        while True:
            event = pop_live()
            if event is None:
                return True
            time = event.time
            if until is not None and time > until:
                self._unpop(event)
                self.now = until
                return False
            if max_cycles is not None and time > max_cycles:
                self._unpop(event)
                raise SimulationHang(
                    f"exceeded max_cycles={max_cycles}: next event at cycle "
                    f"{time} with {self.pending} events queued and "
                    f"{self._events_fired - start_fired} fired this run",
                    cycle=self.now,
                    events_fired=self._events_fired - start_fired,
                    queue_depth=self.pending,
                )
            if budget is not None and self._events_fired - start_fired >= budget:
                self._unpop(event)
                raise SimulationHang(
                    f"exceeded max_events={budget} at cycle {self.now} "
                    f"with {self.pending} events still queued",
                    cycle=self.now,
                    events_fired=self._events_fired - start_fired,
                    queue_depth=self.pending,
                )
            self.now = time
            self._events_fired += 1
            event.fn(*event.args)
            if self._stop or stop_when():
                return False

    # ------------------------------------------------------------------
    # Checkpoint/restore
    # ------------------------------------------------------------------
    def capture_state(self, ctx) -> dict:
        """Snapshot the full event queue, clock and counters.

        Every queued event — including lazily-cancelled wheel leftovers
        and heap tombstones — is interned through the context so queue
        structure, seq order and cancellation accounting round-trip
        exactly.  Only callable between runs (never from a callback).
        """
        if self._active_batch is not None:
            raise SnapshotError(
                "cannot snapshot the engine from inside an event callback"
            )
        wheel = []
        for idx, bucket in enumerate(self._wheel):
            if bucket:
                wheel.append((idx, [ctx.ref_event(event) for event in bucket]))
        return {
            "v": 1,
            "horizon": self._horizon,
            "now": self.now,
            "seq": self._seq,
            "events_fired": self._events_fired,
            "wheel": wheel,
            "heap": [ctx.ref_event(event) for event in self._heap],
            "heap_cancelled": self._heap_cancelled,
        }

    def restore_state(self, state: dict, ctx) -> None:
        """Rebuild the queue from a snapshot (inverse of capture).

        The heap list is restored in its captured order — a valid heap's
        element order *is* its structure, so no re-heapify is needed and
        subsequent pops tie-break identically to the captured engine.
        """
        check_state_version(state, 1, "Engine")
        if state["horizon"] != self._horizon:
            raise SnapshotError(
                f"snapshot wheel horizon {state['horizon']} does not match "
                f"engine horizon {self._horizon}"
            )
        self.now = state["now"]
        self._seq = state["seq"]
        self._events_fired = state["events_fired"]
        self._wheel = [None] * self._horizon
        count = 0
        for idx, refs in state["wheel"]:
            bucket = [ctx.get_event(ref) for ref in refs]
            self._wheel[idx] = bucket
            count += len(bucket)
        self._wheel_count = count
        heap = [ctx.get_event(ref) for ref in state["heap"]]
        for event in heap:
            event.heap_owner = self
        self._heap = heap
        self._heap_cancelled = state["heap_cancelled"]
        self._stop = False
        self._active_batch = None


class HeapEngine:
    """Reference heap-only implementation of the engine contract.

    This is the original single-heap scheduler, kept verbatim as the
    behavioural oracle: the determinism tests replay identical schedules
    (same-cycle FIFO, cancellations, far-future refresh events) on both
    engines and require the exact same firing order.  Use it when
    debugging a suspected scheduler issue; it is several times slower
    than :class:`Engine` on the simulator's workloads, and it is the
    engine to use if callbacks ever need to re-enter ``run``/``step``.
    """

    def __init__(self) -> None:
        self._queue: List[Event] = []
        # Current simulation time in cycles.  A plain attribute rather
        # than a property because hot paths read it constantly; treat it
        # as read-only -- only the engine assigns it.
        self.now = 0
        self._seq = 0
        self._events_fired = 0
        self._stop = False

    @property
    def events_fired(self) -> int:
        """Total number of callbacks executed so far (for diagnostics)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._queue)

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute cycle ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at cycle {time}; current time is {self.now}"
            )
        event = Event(int(time), self._seq, fn, args)
        self._seq += 1
        heappush(self._queue, event)
        return event

    def request_stop(self) -> None:
        """Stop the active :meth:`run` once the current callback returns."""
        self._stop = True

    def step(self) -> bool:
        """Fire the next non-cancelled event.

        Returns ``False`` when the queue is empty, ``True`` otherwise.
        """
        while self._queue:
            event = heappop(self._queue)
            if event.cancelled:
                continue
            self.now = event.time
            self._events_fired += 1
            event.fn(*event.args)
            return True
        return False

    def run(
        self,
        until: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
        max_events: Optional[int] = None,
        watchdog: Optional[Watchdog] = None,
    ) -> None:
        """Drain the event queue (see :meth:`Engine.run`)."""
        budget = max_events
        max_cycles = None
        pending_work = None
        if watchdog is not None:
            if watchdog.max_events is not None:
                budget = (
                    watchdog.max_events
                    if budget is None
                    else min(budget, watchdog.max_events)
                )
            max_cycles = watchdog.max_cycles
            pending_work = watchdog.pending_work
        self._stop = False
        start_fired = self._events_fired
        while self._queue:
            event = self._queue[0]
            if event.cancelled:
                heappop(self._queue)
                continue
            if until is not None and event.time > until:
                self.now = until
                return
            if max_cycles is not None and event.time > max_cycles:
                raise SimulationHang(
                    f"exceeded max_cycles={max_cycles}: next event at "
                    f"cycle {event.time} with {len(self._queue)} events "
                    f"queued and {self._events_fired - start_fired} "
                    "fired this run",
                    cycle=self.now,
                    events_fired=self._events_fired - start_fired,
                    queue_depth=len(self._queue),
                )
            if budget is not None and self._events_fired - start_fired >= budget:
                raise SimulationHang(
                    f"exceeded max_events={budget} at cycle {self.now} "
                    f"with {len(self._queue)} events still queued",
                    cycle=self.now,
                    events_fired=self._events_fired - start_fired,
                    queue_depth=len(self._queue),
                )
            heappop(self._queue)
            self.now = event.time
            self._events_fired += 1
            event.fn(*event.args)
            if self._stop or (stop_when is not None and stop_when()):
                return
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

    def capture_state(self, ctx) -> dict:
        """Snapshot the heap queue, clock and counters."""
        return {
            "v": 1,
            "now": self.now,
            "seq": self._seq,
            "events_fired": self._events_fired,
            "queue": [ctx.ref_event(event) for event in self._queue],
        }

    def restore_state(self, state: dict, ctx) -> None:
        """Rebuild the queue from a snapshot (captured heap order)."""
        check_state_version(state, 1, "HeapEngine")
        self.now = state["now"]
        self._seq = state["seq"]
        self._events_fired = state["events_fired"]
        self._queue = [ctx.get_event(ref) for ref in state["queue"]]
        self._stop = False
