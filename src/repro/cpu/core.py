"""Trace-driven simplified out-of-order core.

The model keeps the three constraints that determine memory-system-bound
performance and drops the rest of the microarchitecture:

* **Front-end pacing** — instructions dispatch at most ``width`` per
  cycle (Table 1: 4 micro-ops/cycle).
* **ROB window** — a memory op can only be in flight while it is within
  ``rob_size`` instructions of the oldest uncommitted memory op, which is
  what bounds memory-level parallelism (96 entries in Table 1).  The L1
  MSHR file (8 entries) bounds *distinct outstanding lines*.
* **In-order commit** — loads block commit until their data returns;
  stores drain through a store buffer and commit immediately.  Commit is
  paced at ``base_cpi`` cycles per instruction, an aggregate stand-in for
  execution-core effects (dependencies, branch mispredictions) that the
  per-benchmark workload specs calibrate.

The core pushes its own per-reference events (the next dispatch, the
dispatch a commit unblocks, a commit at the cycle an op completes, the
paced commit) straight onto the engine heap as ``(time, seq, fn, ())``
with the engine's next ``seq``: each time is ``>= now`` by
construction, so the check :meth:`~repro.engine.Engine.schedule_at`
makes for every other component would never fire here.

A one-shot commit watch (:meth:`Core.watch_commit`) is the core's one
milestone: the run driver (:mod:`repro.system.run`) ends every warm-up
and measured window on it, and at a full-detail run's quota freezes the
core's statistics while the core keeps executing, so it continues to
contend for the shared L2, MSHRs and memory (the paper's methodology).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from math import ceil
from typing import Deque, Optional

from ..common.address import PageAllocator
from ..common.stats import StatRegistry
from ..engine.simulator import Engine
from ..cache.l1 import HIT, L1Cache
from .trace import BatchedTrace, Trace, as_batched

#: ``_commit_limit`` when no commit watch is pending: beyond any
#: reachable instruction count.
_NO_LIMIT = 1 << 62


class _InFlight:
    """One dispatched memory op awaiting commit.

    The same object is the L1's waiter: ``L1Cache.access`` merges it
    into an MSHR entry on a miss and hands it back to ``Core._on_data``
    when the data arrives; a hit the core completes in ``_dispatch``.
    So a reference that stays in the L1 builds no request.
    """

    __slots__ = ("icount", "dispatched_at", "completed_time")

    def __init__(self, icount: int, dispatched_at: int):
        self.icount = icount
        self.dispatched_at = dispatched_at
        self.completed_time: Optional[int] = None


class Core:
    """One core executing an endless memory trace."""

    # Dispatch and commit read dozens of attributes per event; slot
    # storage makes each of those loads an index instead of a dict probe.
    __slots__ = (
        "engine",
        "core_id",
        "_trace",
        "l1",
        "allocator",
        "stats",
        "_c_rob_stalls",
        "_c_tlb_walk_cycles",
        "_c_l1_mshr_stalls",
        "_c_dispatched_refs",
        "_c_load_latency_sum",
        "_c_loads_completed",
        "width",
        "rob_size",
        "base_cpi",
        "tlb",
        "icount",
        "committed",
        "_outstanding",
        "_next_dispatch_time",
        "_last_commit_time",
        "_last_commit_icount",
        "_dispatch_scheduled",
        "_commit_scheduled",
        "_rob_blocked",
        "_l1_blocked",
        "_paused",
        "_on_commit_watch",
        "_commit_at",
        "_cursor",
        "_page_shift",
        "_commit_limit",
        "parked_dispatches",
    )

    def __init__(
        self,
        engine: Engine,
        core_id: int,
        trace: Trace,
        l1: L1Cache,
        allocator: PageAllocator,
        registry: Optional[StatRegistry] = None,
        width: int = 4,
        rob_size: int = 96,
        base_cpi: float = 0.4,
        tlb=None,
    ) -> None:
        if width < 1 or rob_size < 1:
            raise ValueError("width and rob_size must be >= 1")
        if base_cpi <= 0:
            raise ValueError("base_cpi must be positive")
        self.engine = engine
        self.core_id = core_id
        self.trace = trace
        self.l1 = l1
        # The L1 hands this core's missed ops back through one callback.
        l1.on_data = self._on_data
        self.allocator = allocator
        registry = registry if registry is not None else StatRegistry()
        self.stats = registry.group(f"core{core_id}")
        # Bound counter slots for the dispatch/commit hot path.
        self._c_rob_stalls = self.stats.counter("rob_stalls")
        self._c_tlb_walk_cycles = self.stats.counter("tlb_walk_cycles")
        self._c_l1_mshr_stalls = self.stats.counter("l1_mshr_stalls")
        self._c_dispatched_refs = self.stats.counter("dispatched_refs")
        self._c_load_latency_sum = self.stats.counter("load_latency_sum")
        self._c_loads_completed = self.stats.counter("loads_completed")
        self.width = width
        self.rob_size = rob_size
        self.base_cpi = base_cpi
        # Optional DTLB (Table 1): a miss delays the access by the walk
        # penalty; the retry then hits because the walk filled the entry.
        self.tlb = tlb

        self.icount = 0  # instructions dispatched so far
        self.committed = 0  # instructions committed so far
        self._outstanding: Deque[_InFlight] = deque()
        self._next_dispatch_time = 0
        self._last_commit_time = 0
        self._last_commit_icount = 0
        self._dispatch_scheduled = False
        self._commit_scheduled = False
        self._rob_blocked = False
        self._l1_blocked = False
        self._paused = False

        # One-shot commit watch (see watch_commit).
        self._on_commit_watch = None

        # Cycle of the pending commit event (valid while
        # _commit_scheduled): the parking rule reads it.
        self._commit_at = 0
        self._page_shift = allocator._page_shift
        # Threshold of the pending commit watch: below it _commit is
        # pure pacing.
        self._commit_limit = _NO_LIMIT
        #: Dispatch events saved by the parking rule (_park_next).  A
        #: plain tally, deliberately not a registry counter, so stat
        #: dumps and digests are the same with or without the rule.
        self.parked_dispatches = 0

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    @property
    def trace(self) -> BatchedTrace:
        """The trace this core executes, in columnar form."""
        return self._trace

    @trace.setter
    def trace(self, trace: Trace) -> None:
        """Seat a trace; dispatch and ``skip_ahead`` read its cursor.

        Accepts a :class:`BatchedTrace` or any iterable of
        :class:`~repro.cpu.trace.TraceItem` (a generator,
        :func:`~repro.workloads.tracefile.read_trace`), which is chunked
        into columns.  Stalled ops re-read the cursor's current row, so
        a swap between events takes effect at the next dispatch.
        """
        self._trace = as_batched(trace)
        self._cursor = self._trace.cursor()

    def start(self) -> None:
        """Begin fetching the trace (call once, at time 0 or later)."""
        self._schedule_dispatch(self.engine.now)

    def watch_commit(self, threshold: int, callback) -> None:
        """Invoke ``callback(self)`` once when ``committed`` reaches ``threshold``.

        Fires immediately if the threshold is already met, otherwise from
        inside the commit event that crosses it.  The run driver ends each
        warm-up and measured window this way, without polling a predicate
        on every event.  Setting a watch replaces a pending one.
        """
        if self.committed >= threshold:
            callback(self)
        else:
            self._commit_limit = threshold
            self._on_commit_watch = callback

    # ------------------------------------------------------------------
    # Sampled simulation (phase switching)
    # ------------------------------------------------------------------
    @property
    def drained(self) -> bool:
        """No dispatched memory op awaits commit."""
        return not self._outstanding

    def pause(self) -> None:
        """Stop dispatching new work; in-flight ops keep committing.

        The run driver pauses every core once, for the final drain of a
        sampled run, and runs the engine until the hierarchy is quiescent.
        """
        self._paused = True

    def skip_ahead(self, instructions: int) -> int:
        """Functionally execute at least ``instructions`` instructions.

        Consumes the trace and applies every reference to the TLB and
        cache hierarchy through their functional (state-only) paths — no
        events, no timing, no statistics.

        In-flight ops are *orphaned*, not drained: their memory requests
        stay in the MSHRs and controller queues and complete later at
        their real latencies, so queue occupancy carries across the skip
        and the next detailed phase starts against live contention
        instead of an artificially empty memory system.  The orphans
        simply never commit — the skip advances ``committed`` past them
        wholesale and re-anchors commit pacing at the current cycle.

        Returns the number of instructions skipped.
        """
        start = self.icount
        target = start + instructions
        tlb_touch = self.tlb.touch if self.tlb is not None else None
        translate = self.allocator.translate
        functional_access = self.l1.functional_access
        cursor = self._cursor
        batch = cursor.batch
        i = cursor.index
        icount = start
        while icount < target:
            if batch is None or i >= batch.length:
                batch = cursor.advance_batch()
                i = 0
            gaps, addrs, writes = batch.gaps, batch.addrs, batch.writes
            length = batch.length
            while i < length and icount < target:
                icount += gaps[i] + 1
                addr = addrs[i]
                if tlb_touch is not None:
                    tlb_touch(addr)
                functional_access(translate(addr), writes[i] != 0)
                i += 1
        cursor.index = i
        self.icount = icount
        # Orphan whatever was in flight: completions still arrive (and
        # count their real latencies) but nothing is left to commit.
        self._outstanding.clear()
        self._rob_blocked = False
        # A registered on_mshr_free waiter may still fire later; its
        # _resume_after_l1 just re-schedules dispatch, which is harmless.
        self._l1_blocked = False
        self.committed = self.icount
        self._last_commit_icount = self.icount
        now = self.engine.now
        self._last_commit_time = now
        self._next_dispatch_time = now
        if not self._paused:
            self._schedule_dispatch(now)
        return self.icount - start

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _schedule_dispatch(self, at: int) -> None:
        if self._dispatch_scheduled:
            return
        self._dispatch_scheduled = True
        engine = self.engine
        now = engine.now
        engine.schedule_at(at if at > now else now, self._dispatch)

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        if self._l1_blocked or self._paused:
            return
        engine = self.engine
        now = engine.now
        if now < self._next_dispatch_time:
            self._schedule_dispatch(self._next_dispatch_time)
            return

        # The trace is read column-direct and the cursor's index advances
        # only once the op dispatches, so every stall below simply
        # re-reads the same row on retry.
        cursor = self._cursor
        batch = cursor.batch
        i = cursor.index
        if batch is None or i >= batch.length:
            batch = cursor.advance_batch()
            i = 0
        gap = batch.gaps[i]
        addr = batch.addrs[i]
        is_write = batch.writes[i] != 0
        pc = batch.pcs[i]
        next_icount = self.icount + gap + 1

        # ROB occupancy gate: the new op must fit in the window with the
        # oldest uncommitted op.
        outstanding = self._outstanding
        if outstanding and (
            next_icount - outstanding[0].icount >= self.rob_size
        ):
            self._rob_blocked = True
            self._c_rob_stalls.value += 1.0
            return  # resumed by commit

        tlb = self.tlb
        if tlb is not None:
            # Inlined Tlb.access (same mutations, same stat order).
            vpn = addr >> tlb._page_shift
            tlb_set = tlb._sets[vpn % tlb.num_sets]
            if vpn in tlb_set:
                tlb_set[vpn] = tlb_set.pop(vpn)
                tlb._c_hits.value += 1.0
                walk_penalty = 0
            else:
                tlb._c_misses.value += 1.0
                if len(tlb_set) >= tlb.assoc:
                    del tlb_set[next(iter(tlb_set))]
                tlb_set[vpn] = True
                walk_penalty = tlb.walk_penalty
            if walk_penalty:
                self._next_dispatch_time = now + walk_penalty
                self._c_tlb_walk_cycles.value += walk_penalty
                self._schedule_dispatch(self._next_dispatch_time)
                return

        # Inlined PageAllocator.translate hit path; first touches (and
        # capacity wraps) take the method.
        allocator = self.allocator
        shift = self._page_shift
        frame = allocator._page_table.get(addr >> shift)
        if frame is None:
            paddr = allocator.translate(addr)
        else:
            paddr = (frame << shift) | (addr & allocator._offset_mask)
        record = _InFlight(next_icount, now)
        l1 = self.l1
        outcome = l1.access(paddr, pc, is_write, record)
        if not outcome:
            self._l1_blocked = True
            self._c_l1_mshr_stalls.value += 1.0
            l1.on_mshr_free(self._resume_after_l1)
            return
        outstanding.append(record)
        hit = outcome == HIT
        if hit or is_write:
            # A hit completes here (what _on_data does for a fill: the
            # data is usable l1.latency cycles from now); a store commits
            # from the store buffer without waiting for data.
            record.completed_time = now
            if hit:
                self._c_load_latency_sum.value += l1.latency
                self._c_loads_completed.value += 1.0
            if not self._commit_scheduled:
                self._commit_scheduled = True
                self._commit_at = now
                seq = engine._seq
                engine._seq = seq + 1
                heappush(engine._heap, (now, seq, self._commit, ()))

        cursor.index = i + 1
        self.icount = next_icount
        self._c_dispatched_refs.value += 1.0
        # Integer ceil-division; gap >= 0 keeps this >= 1 by construction.
        next_time = now + -(-(gap + 1) // self.width)
        self._next_dispatch_time = next_time
        if self._dispatch_scheduled:
            return
        if (
            self._commit_scheduled
            and self._commit_at > next_time
            and self._park_next(next_icount - outstanding[0].icount)
        ):
            return
        # next_time is strictly in the future, so no now-clamp.
        self._dispatch_scheduled = True
        seq = engine._seq
        engine._seq = seq + 1
        heappush(engine._heap, (next_time, seq, self._dispatch, ()))

    def _park_next(self, window: int) -> bool:
        """Park the next op now when its dispatch event could only stall.

        Called at the end of a successful dispatch at cycle ``t`` whose
        follow-up dispatch would fire at ``t + front_end``, once the
        caller has established that this core's pending commit fires
        strictly after that.  ``window`` is the ROB span the just
        dispatched op already occupies.  If the next trace item does not
        fit either, the follow-up event is a leaf: nothing can retire
        from this core's ROB before it fires, so it would find the same
        full window, park the item, set ``_rob_blocked``, bump
        ``rob_stalls`` and schedule nothing.  Doing exactly that here
        saves the event; the commit that frees the window wakes dispatch
        as it always has.
        """
        cursor = self._cursor
        batch = cursor.batch
        i = cursor.index
        if i >= batch.length:
            try:
                batch = cursor.advance_batch()
            except StopIteration:
                return False  # the follow-up event raises it, on time
            i = 0
        if window + batch.gaps[i] + 1 < self.rob_size:
            return False
        self._rob_blocked = True
        self._c_rob_stalls.value += 1.0
        self.parked_dispatches += 1
        return True

    def _resume_after_l1(self) -> None:
        self._l1_blocked = False
        self._schedule_dispatch(self.engine.now)

    def _on_data(self, record: _InFlight, completed_at: int) -> None:
        """The L1's fill of ``record``'s line: data usable at ``completed_at``."""
        now = self.engine.now
        if record.completed_time is None:
            record.completed_time = now
        self._c_load_latency_sum.value += completed_at - record.dispatched_at
        self._c_loads_completed.value += 1.0
        if not self._commit_scheduled:
            self._commit_scheduled = True
            self._commit_at = now
            self.engine.schedule_at(now, self._commit)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def _commit(self) -> None:
        self._commit_scheduled = False
        engine = self.engine
        now = engine.now
        outstanding = self._outstanding
        base_cpi = self.base_cpi
        lct = self._last_commit_time
        lci = self._last_commit_icount
        while outstanding:
            head = outstanding[0]
            completed = head.completed_time
            if completed is None:
                return  # waiting on load data; resumed by _on_data
            icount = head.icount
            pace = ceil((icount - lci) * base_cpi)
            target = lct + (pace if pace > 1 else 1)
            if completed > target:
                target = completed
            if now < target:
                if not self._commit_scheduled:
                    self._commit_scheduled = True
                    self._commit_at = target
                    seq = engine._seq
                    engine._seq = seq + 1
                    heappush(engine._heap, (target, seq, self._commit, ()))
                return
            outstanding.popleft()
            self._last_commit_time = lct = target
            self._last_commit_icount = lci = icount
            self.committed = icount
            if icount >= self._commit_limit:
                self._fire_commit_watch()
            if self._rob_blocked:
                self._rob_blocked = False
                if not self._dispatch_scheduled:
                    self._dispatch_scheduled = True
                    seq = engine._seq
                    engine._seq = seq + 1
                    heappush(engine._heap, (now, seq, self._dispatch, ()))

    def _fire_commit_watch(self) -> None:
        """Disarm the watch, then call it (it may set the next one)."""
        self._commit_limit = _NO_LIMIT
        callback, self._on_commit_watch = self._on_commit_watch, None
        callback(self)
