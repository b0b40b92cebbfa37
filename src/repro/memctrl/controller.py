"""The memory controller.

Each :class:`MemoryController` owns a bounded request queue, a scheduler,
a command/data channel (a :class:`~repro.interconnect.bus.Bus`), and the
banks of its ranks as one ``banks[rank][bank]`` grid (local rank ids;
:func:`~repro.dram.bank.build_banks`).  :meth:`MemoryController.enqueue`
resolves a request's :class:`~repro.dram.bank.Bank` once, onto its
:class:`~repro.memctrl.queue.MrqEntry`; the pump, the scheduler and the
issue all reach DRAM through that bank.

Issue model: the controller issues at most one DRAM command per
``quantum`` cycles (the MC clock — 2 CPU cycles when the MC runs at FSB
speed in the 2D baseline, 1 cycle on-stack).  A queued request is
*ready* when its bank can accept a command; the scheduler picks among
ready requests only, so requests to busy banks wait in the queue and
occupy MRQ capacity — which is what creates the backpressure the paper's
MSHR study depends on.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from ..common.histogram import LatencyHistogram
from ..common.request import MemoryRequest
from ..common.stats import StatGroup
from ..dram.bank import Bank
from ..engine.simulator import Engine
from ..interconnect.bus import Bus
from .mapping import AddressMapping
from .queue import MemoryRequestQueue, MrqEntry
from .schedulers import Scheduler


class MemoryController:
    """One memory channel: MRQ + scheduler + bus + DRAM ranks."""

    # "__dict__" holds only the per-instance method wrappers that
    # repro.validate.hooks installs; the snapshot walk reads the other
    # slots and never that dict.
    __slots__ = (
        "mc_id", "engine", "banks", "bus", "scheduler", "mapping", "mrq",
        "_scheduler_single_trivial", "quantum", "transaction_overhead",
        "_issue_gap", "read_latency", "stats", "_c_mrq_accepts",
        "_c_mrq_rejections", "_c_mrq_occupancy_sum", "_c_issued",
        "_c_queue_wait_cycles", "_c_row_hits", "_c_row_misses", "line_size",
        "_next_issue_time", "_pump_at", "_pump_handle", "_space_waiters",
        "__dict__",
    )

    def __init__(
        self,
        mc_id: int,
        engine: Engine,
        banks: List[List[Bank]],
        bus: Bus,
        scheduler: Scheduler,
        mapping: AddressMapping,
        queue_capacity: int = 32,
        quantum: int = 1,
        transaction_overhead: int = 0,
        stats: Optional[StatGroup] = None,
    ) -> None:
        if quantum < 1:
            raise ValueError("MC quantum must be >= 1 cycle")
        if transaction_overhead < 0:
            raise ValueError("transaction overhead cannot be negative")
        self.mc_id = mc_id
        self.engine = engine
        self.banks = banks
        self.bus = bus
        self.scheduler = scheduler
        self.mapping = mapping
        self.mrq = MemoryRequestQueue(queue_capacity)
        # Stateless schedulers pick the sole ready entry trivially; a
        # stateful one (write-drain) must see every call.
        self._scheduler_single_trivial = getattr(
            scheduler, "single_trivial", False
        )
        self.quantum = quantum
        # Cycles the MC front end is tied up per scheduled transaction
        # (arbitration, command sequencing, completion bookkeeping).
        # This is the per-channel serialization that makes additional
        # memory controllers valuable (Section 4.1) even when the raw
        # data bus is not saturated.
        self.transaction_overhead = transaction_overhead
        self._issue_gap = max(quantum, transaction_overhead)
        # Distribution of read service latencies (MRQ arrival -> data at
        # the requester), for tail analysis.
        self.read_latency = LatencyHistogram()
        self.stats = stats if stats is not None else StatGroup(f"mc{mc_id}")
        # Bound counter slots for the per-request enqueue/issue paths.
        self._c_mrq_accepts = self.stats.counter("mrq_accepts")
        self._c_mrq_rejections = self.stats.counter("mrq_rejections")
        self._c_mrq_occupancy_sum = self.stats.counter("mrq_occupancy_sum")
        self._c_issued = self.stats.counter("issued")
        self._c_queue_wait_cycles = self.stats.counter("queue_wait_cycles")
        self._c_row_hits = self.stats.counter("row_hits")
        self._c_row_misses = self.stats.counter("row_misses")
        self.line_size = mapping.line_size
        self._next_issue_time = 0
        # The one pending pump event: its cycle (None when none is
        # queued) and its engine handle, for cancelling an earlier wake.
        self._pump_at: Optional[int] = None
        self._pump_handle = 0
        self._space_waiters: Deque[Callable[[], None]] = deque()

    # ------------------------------------------------------------------
    # Enqueue side (called by the L2 miss path / writeback path)
    # ------------------------------------------------------------------
    def enqueue(self, request: MemoryRequest) -> bool:
        """Queue a request; False when the MRQ is full (caller must wait)."""
        mrq = self.mrq
        entries = mrq.entries
        if len(entries) >= mrq.capacity:
            self._c_mrq_rejections.value += 1.0
            return False
        coords = self.mapping.decompose(request.addr)
        engine = self.engine
        now = engine.now
        entries.append(
            MrqEntry(request, coords, now, self.banks[coords.rank][coords.bank])
        )
        self._c_mrq_accepts.value += 1.0
        self._c_mrq_occupancy_sum.value += len(entries)
        # Arm the pump for max(now, next issue slot), unless the pending
        # one fires no later; an earlier arming cancels the later one.
        at = self._next_issue_time
        if at < now:
            at = now
        pump_at = self._pump_at
        if pump_at is not None:
            if pump_at <= at:
                return True
            engine.cancel(self._pump_handle)
        self._pump_at = at
        self._pump_handle = engine.schedule_at(at, self._pump)
        return True

    def wait_for_space(self, callback: Callable[[], None]) -> None:
        """Register a one-shot callback fired when an MRQ slot frees up."""
        self._space_waiters.append(callback)

    # ------------------------------------------------------------------
    # Issue side
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Issue the scheduler's pick among the ready entries, then
        re-arm: at the next issue slot while entries remain, or, when no
        bank is ready, at the earliest cycle one is.

        An entry is ready when its bank could start now: the bank's next
        column-command cycle, pushed past its rank's refresh blackout
        (``Bank.earliest_start``, computed inline).  The pump is the
        only pending pump event whenever it runs, so it re-arms without
        a cancel."""
        self._pump_at = None
        engine = self.engine
        now = engine.now
        if now < self._next_issue_time:
            at = self._pump_at = self._next_issue_time
            self._pump_handle = engine.schedule_at(at, self._pump)
            return
        entries = self.mrq.entries
        if not entries:
            return
        ready = []
        next_ready = None
        for entry in entries:
            bank = entry.bank
            start = bank._bank_ready
            if start < now:
                start = now
            refresh = bank.refresh
            phase = refresh.phase
            if start >= phase:
                offset = (start - phase) % refresh.t_refi
                if offset < refresh.t_rfc:
                    start += refresh.t_rfc - offset
            if start == now:
                ready.append(entry)
            elif next_ready is None or start < next_ready:
                next_ready = start
        if not ready:
            # now >= the next issue slot, so the wake is next_ready.
            self._pump_at = next_ready
            self._pump_handle = engine.schedule_at(next_ready, self._pump)
            return
        if len(ready) == 1 and self._scheduler_single_trivial:
            entry = ready[0]
        else:
            entry = self.scheduler.select(ready)
        entries.remove(entry)
        self._issue(entry, now)
        at = self._next_issue_time = now + self._issue_gap
        if entries:
            self._pump_at = at
            self._pump_handle = engine.schedule_at(at, self._pump)
        if self._space_waiters:
            self._release_waiters()

    def _release_waiters(self) -> None:
        waiters = self._space_waiters
        entries = self.mrq.entries
        capacity = self.mrq.capacity
        while waiters and len(entries) < capacity:
            waiters.popleft()()

    def _issue(self, entry: MrqEntry, now: int) -> None:
        """Issue one entry and schedule its completion event.

        Writes: the data crosses the channel first, then is written into
        the bank (or its row buffer); the request completes when the
        bank has accepted it (write recovery lives in the bank's ready
        times).  Reads: the command propagates to the device, the bank
        produces the data, then the data crosses the channel back.
        Delivery is critical-word-first (Section 3): the requester
        unblocks after the first beat, while the bus stays occupied for
        the full line transfer.
        """
        request = entry.request
        self._c_issued.value += 1.0
        self._c_queue_wait_cycles.value += now - entry.arrival
        bus = self.bus
        is_write = request.is_write
        if is_write:
            _, data_arrival = bus.transfer(self.line_size, now)
            done, hit = entry.bank.access(data_arrival, entry.coords.row, True)
        else:
            done, hit = entry.bank.access(
                now + bus.wire_latency, entry.coords.row, False
            )
        request.row_buffer_hit = hit
        if hit:
            self._c_row_hits.value += 1.0
        else:
            self._c_row_misses.value += 1.0
        if not is_write:
            start, _ = bus.transfer(self.line_size, done)
            done = start + bus.cycles_per_beat + bus.wire_latency
            self.read_latency.record(done - entry.arrival)
        self.engine.schedule_at(done, request.complete, done)
