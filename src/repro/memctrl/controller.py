"""The memory controller.

Each :class:`MemoryController` owns a bounded request queue, a scheduler,
a command/data channel (a :class:`~repro.interconnect.bus.Bus`), and the
:class:`~repro.dram.device.DramDevice` holding its ranks.

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
from typing import Callable, Deque, Optional

from ..common.histogram import LatencyHistogram
from ..common.request import MemoryRequest
from ..common.stats import StatGroup
from ..dram.device import DramDevice
from ..engine.simulator import Engine
from ..interconnect.bus import Bus
from .mapping import AddressMapping
from .queue import MemoryRequestQueue, MrqEntry
from .schedulers import Scheduler


class MemoryController:
    """One memory channel: MRQ + scheduler + bus + DRAM ranks."""

    def __init__(
        self,
        mc_id: int,
        engine: Engine,
        device: DramDevice,
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
        self.device = device
        self.bus = bus
        self.scheduler = scheduler
        self.mapping = mapping
        self.mrq = MemoryRequestQueue(queue_capacity)
        # Stateless schedulers pick the sole ready entry trivially; the
        # stateful ones (write-drain, batch) must see every call.
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
        self._pump_event = None
        self._space_waiters: Deque[Callable[[], None]] = deque()

    # ------------------------------------------------------------------
    # Enqueue side (called by the L2 miss path / writeback path)
    # ------------------------------------------------------------------
    def enqueue(self, request: MemoryRequest) -> bool:
        """Queue a request; False when the MRQ is full (caller must wait)."""
        coords = self.mapping.decompose(request.addr)
        bank = self.device.bank(coords.rank, coords.bank)
        entry = self.mrq.push(request, coords, self.engine.now, bank)
        if entry is None:
            self._c_mrq_rejections.value += 1.0
            return False
        self._c_mrq_accepts.value += 1.0
        self._c_mrq_occupancy_sum.value += len(self.mrq)
        self._schedule_pump(self.engine.now)
        return True

    def wait_for_space(self, callback: Callable[[], None]) -> None:
        """Register a one-shot callback fired when an MRQ slot frees up."""
        self._space_waiters.append(callback)

    # ------------------------------------------------------------------
    # Issue side
    # ------------------------------------------------------------------
    def _schedule_pump(self, at: int) -> None:
        at = max(at, self._next_issue_time)
        if self._pump_event is not None:
            if self._pump_event.time <= at:
                return
            self._pump_event.cancel()
        self._pump_event = self.engine.schedule_at(at, self._pump)

    def _pump(self) -> None:
        self._pump_event = None
        now = self.engine.now
        if now < self._next_issue_time:
            self._schedule_pump(self._next_issue_time)
            return
        entries = self.mrq.entries
        if not entries:
            return
        ready = []
        next_ready = None
        for entry in entries:
            start = entry.bank.earliest_start(now)
            if start <= now:
                ready.append(entry)
            elif next_ready is None or start < next_ready:
                next_ready = start
        if not ready:
            if next_ready is not None:
                self._schedule_pump(next_ready)
            return
        if len(ready) == 1 and self._scheduler_single_trivial:
            entry = ready[0]
        else:
            entry = self.scheduler.select(ready, self.device, now)
        self.mrq.remove(entry)
        self._issue(entry, now)
        self._next_issue_time = now + self._issue_gap
        if not self.mrq.is_empty:
            self._schedule_pump(self._next_issue_time)
        self._release_waiters()

    def _release_waiters(self) -> None:
        while self._space_waiters and not self.mrq.is_full:
            waiter = self._space_waiters.popleft()
            waiter()

    def _issue(self, entry: MrqEntry, now: int) -> None:
        """Issue one entry and schedule its completion event."""
        request = entry.request
        coords = entry.coords
        request.issued_to_dram_at = now
        self._c_issued.value += 1.0
        self._c_queue_wait_cycles.value += now - entry.arrival
        if request.is_write:
            # Write data crosses the channel first, then is written into
            # the bank (or its row buffer).  The request completes when
            # the bank has accepted the data (write-recovery is handled
            # inside the bank's ready times).
            _, data_arrival = self.bus.transfer(self.line_size, now)
            done, hit = self.device.access(
                coords.rank, coords.bank, coords.row, data_arrival, is_write=True
            )
            self._note_row_outcome(request, hit)
            self.engine.schedule_at(done, request.complete, done)
        else:
            # Reads: command propagates to the device, the bank produces
            # data, then the data crosses the channel back to the MC.
            # Delivery is critical-word-first (Section 3): the requester
            # unblocks after the first beat, while the bus stays occupied
            # for the full line transfer.
            cmd_arrival = now + self.bus.wire_latency
            data_time, hit = self.device.access(
                coords.rank, coords.bank, coords.row, cmd_arrival, is_write=False
            )
            self._note_row_outcome(request, hit)
            start, _ = self.bus.transfer(self.line_size, data_time)
            first_beat = start + self.bus.cycles_per_beat + self.bus.wire_latency
            self.read_latency.record(first_beat - entry.arrival)
            self.engine.schedule_at(first_beat, request.complete, first_beat)

    def _note_row_outcome(self, request: MemoryRequest, hit: bool) -> None:
        request.row_buffer_hit = hit
        if hit:
            self._c_row_hits.value += 1.0
        else:
            self._c_row_misses.value += 1.0
