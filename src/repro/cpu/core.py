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

The paper's measurement methodology is reproduced: statistics freeze when
a core commits its instruction quota, but the core keeps executing so it
continues to contend for the shared L2, MSHRs and memory.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from math import ceil
from typing import Deque, Optional

from ..common.address import PageAllocator
from ..common.request import AccessType, MemoryRequest
from ..common.stats import StatRegistry
from ..engine.simulator import Engine
from ..cache.l1 import L1Cache
from .trace import BatchedTrace, Trace, as_batched

_READ = AccessType.READ
_WRITE = AccessType.WRITE

#: ``_commit_limit`` when neither a commit watch nor a measurement quota
#: is pending: beyond any reachable instruction count.
_NO_LIMIT = 1 << 62


class _InFlight:
    """One dispatched memory op awaiting commit."""

    __slots__ = ("icount", "is_write", "completed_time")

    def __init__(self, icount: int, is_write: bool, completed_time: Optional[int]):
        self.icount = icount
        self.is_write = is_write
        self.completed_time = completed_time


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
        "_measure_start_icount",
        "_measure_start_time",
        "measure_quota",
        "frozen",
        "frozen_ipc",
        "on_frozen",
        "_commit_watch",
        "_on_commit_watch",
        "_commit_event",
        "_cursor",
        "_page_shift",
        "_hit_fast",
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

        # Measurement window (the paper's freeze-but-keep-running).
        self._measure_start_icount: Optional[int] = None
        self._measure_start_time: Optional[int] = None
        self.measure_quota: Optional[int] = None
        self.frozen = False
        self.frozen_ipc: Optional[float] = None
        # Invoked once when the measurement quota is reached (the machine
        # uses it to snapshot shared-structure statistics per core).
        self.on_frozen = None
        # One-shot commit watch (see watch_commit).
        self._commit_watch: Optional[int] = None
        self._on_commit_watch = None

        # Handle of the pending commit event (valid while
        # _commit_scheduled): the parking rule reads its fire time.
        self._commit_event = None
        self._page_shift = allocator._page_shift
        # Inline L1-hit fast path: a verified tag hit dispatches without
        # constructing a MemoryRequest (the scalar hit path completes
        # the request synchronously, so the object is pure overhead).
        # Requires power-of-two set indexing; every mutation and schedule
        # call matches l1.access + _on_data exactly.
        self._hit_fast = (
            isinstance(l1, L1Cache) and l1.array._set_mask is not None
        )
        # Smallest committed instruction count at which _commit has a
        # watch or quota to act on (see _refresh_commit_limit).
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

    def begin_measurement(self, quota: int) -> None:
        """Start the measured window: IPC counts from this instant."""
        if quota < 1:
            raise ValueError("quota must be >= 1")
        self._measure_start_icount = self.committed
        self._measure_start_time = self.engine.now
        self.measure_quota = quota
        self.frozen = False
        self.frozen_ipc = None
        self._refresh_commit_limit()

    def watch_commit(self, threshold: int, callback) -> None:
        """Invoke ``callback(self)`` once when ``committed`` reaches ``threshold``.

        Fires immediately if the threshold is already met, otherwise from
        inside the commit event that crosses it.  The machine uses this to
        end the warmup phase without polling a predicate on every event.
        """
        if self.committed >= threshold:
            callback(self)
        else:
            self._commit_watch = threshold
            self._on_commit_watch = callback
            self._refresh_commit_limit()

    def _refresh_commit_limit(self) -> None:
        """Recompute the committed count below which _commit is pure pacing.

        The minimum of the one-shot watch threshold and the instruction
        at which the measurement quota is met; call after changing
        either.
        """
        limit = _NO_LIMIT if self._commit_watch is None else self._commit_watch
        if (
            not self.frozen
            and self.measure_quota is not None
            and self._measure_start_icount is not None
        ):
            limit = min(limit, self._measure_start_icount + self.measure_quota)
        self._commit_limit = limit

    @property
    def measurement_done(self) -> bool:
        return self.frozen

    # ------------------------------------------------------------------
    # Sampled simulation (phase switching)
    # ------------------------------------------------------------------
    @property
    def drained(self) -> bool:
        """No dispatched memory op awaits commit."""
        return not self._outstanding

    def pause(self) -> None:
        """Stop dispatching new work; in-flight ops keep committing.

        The sampling controller pauses every core, runs the engine until
        the hierarchy drains, fast-forwards functionally, then resumes.
        """
        self._paused = True

    def resume(self) -> None:
        """Re-enable dispatch after a functional-warmup phase."""
        if not self._paused:
            return
        self._paused = False
        self._schedule_dispatch(self.engine.now)

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
            gaps, addrs, writes, pcs = (
                batch.gaps, batch.addrs, batch.writes, batch.pcs
            )
            length = batch.length
            while i < length and icount < target:
                icount += gaps[i] + 1
                addr = addrs[i]
                if tlb_touch is not None:
                    tlb_touch(addr)
                functional_access(translate(addr), pcs[i], writes[i] != 0)
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

    @property
    def ipc(self) -> float:
        """Committed IPC over the measurement window (live or frozen)."""
        if self.frozen_ipc is not None:
            return self.frozen_ipc
        if self._measure_start_time is None:
            start_i, start_t = 0, 0
        else:
            start_i, start_t = self._measure_start_icount, self._measure_start_time
        elapsed = self.engine.now - start_t
        if elapsed <= 0:
            return 0.0
        return (self.committed - start_i) / elapsed

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
            # Inlined Tlb.access (same mutations, same stat order); the
            # method remains the path for non-power-of-two set counts.
            mask = tlb._set_mask
            if mask is not None:
                vpn = addr >> tlb._page_shift
                tlb_set = tlb._sets[vpn & mask]
                if vpn in tlb_set:
                    tlb_set.move_to_end(vpn)
                    tlb._c_hits.value += 1.0
                    walk_penalty = 0
                else:
                    tlb._c_misses.value += 1.0
                    if len(tlb_set) >= tlb.assoc:
                        tlb_set.popitem(last=False)
                    tlb_set[vpn] = True
                    walk_penalty = tlb.walk_penalty
            else:
                walk_penalty = tlb.access(addr)
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
        l1 = self.l1
        cache_set = None
        if self._hit_fast:
            array = l1.array
            line = paddr & array._align_mask
            set_idx = (line >> array._line_shift) & array._set_mask
            cache_set = array._sets[set_idx]
        if cache_set is not None and line in cache_set:
            # Inline L1 hit: the same mutations, in the same order, as
            # l1.access + the synchronous _on_data — minus the request
            # object.
            l1._c_accesses.value += 1.0
            array._on_access(cache_set, set_idx, line)
            l1._c_hits.value += 1.0
            if is_write:
                cache_set[line] = True
                array._on_access(cache_set, set_idx, line)
            self._c_load_latency_sum.value += l1.latency
            self._c_loads_completed.value += 1.0
            if not self._commit_scheduled:
                self._commit_scheduled = True
                self._commit_event = engine.schedule_at(now, self._commit)
            l1._train_prefetcher(paddr, pc, False)
            outstanding.append(_InFlight(next_icount, is_write, now))
        else:
            inflight = _InFlight(next_icount, is_write, None)
            request = MemoryRequest(
                paddr,
                _WRITE if is_write else _READ,
                self.core_id,
                pc,
                now,
                partial(self._on_data, inflight),
            )
            if not l1.access(request):
                self._l1_blocked = True
                self._c_l1_mshr_stalls.value += 1.0
                l1.on_mshr_free(self._resume_after_l1)
                return
            outstanding.append(inflight)
            if is_write:
                # Stores commit from the store buffer without waiting
                # for data.
                inflight.completed_time = now
                if not self._commit_scheduled:
                    self._commit_scheduled = True
                    self._commit_event = engine.schedule_at(
                        now, self._commit
                    )

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
            and self._commit_event.time > next_time
            and self._park_next(next_icount - outstanding[0].icount)
        ):
            return
        # next_time is strictly in the future, so no now-clamp.
        self._dispatch_scheduled = True
        engine.schedule_at(next_time, self._dispatch)

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

    def _on_data(self, inflight: _InFlight, request: MemoryRequest) -> None:
        engine = self.engine
        now = engine.now
        if inflight.completed_time is None:
            inflight.completed_time = now
        # completed_at was just stamped by complete(); the subtraction is
        # the latency property without the call.
        self._c_load_latency_sum.value += (
            request.completed_at - request.created_at
        )
        self._c_loads_completed.value += 1.0
        if not self._commit_scheduled:
            self._commit_scheduled = True
            self._commit_event = engine.schedule_at(now, self._commit)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def _commit(self) -> None:
        self._commit_scheduled = False
        now = self.engine.now
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
                    self._commit_event = self.engine.schedule_at(
                        target, self._commit
                    )
                return
            outstanding.popleft()
            self._last_commit_time = lct = target
            self._last_commit_icount = lci = icount
            self.committed = icount
            if icount >= self._commit_limit:
                self._commit_milestones()
            if self._rob_blocked:
                self._rob_blocked = False
                if not self._dispatch_scheduled:
                    self._dispatch_scheduled = True
                    self.engine.schedule_at(now, self._dispatch)

    def _commit_milestones(self) -> None:
        """Fire the commit watch and/or freeze at the measurement quota."""
        if (
            self._commit_watch is not None
            and self.committed >= self._commit_watch
        ):
            self._commit_watch = None
            callback, self._on_commit_watch = self._on_commit_watch, None
            callback(self)
        if (
            not self.frozen
            and self.measure_quota is not None
            and self._measure_start_icount is not None
        ):
            done = self.committed - self._measure_start_icount
            if done >= self.measure_quota:
                self.frozen = True
                elapsed = self.engine.now - (self._measure_start_time or 0)
                self.frozen_ipc = done / elapsed if elapsed > 0 else 0.0
                self.stats.set("measured_instructions", done)
                self.stats.set("measured_cycles", elapsed)
                if self.on_frozen is not None:
                    self.on_frozen(self)
                self.stats.freeze()
        self._refresh_commit_limit()
