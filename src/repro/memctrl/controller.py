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
from typing import Callable, Deque, Dict, Optional

from ..common.histogram import LatencyHistogram
from ..common.request import MemoryRequest
from ..common.stats import StatGroup
from ..dram.device import DramDevice
from ..engine.simulator import Engine
from ..interconnect.bus import Bus
from .mapping import AddressMapping
from .queue import MemoryRequestQueue, MrqEntry
from .schedulers import FcfsScheduler, FrFcfsScheduler, Scheduler


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
        # RAS seam (repro.ras): None on a fault-free machine, so the
        # request path below takes only never-true attribute branches.
        self.ras = None
        # Fused-drain machinery (off by default; the Machine enables it
        # only on eligible configurations — see enable_fused_drain and
        # docs/performance.md).  The break/window tallies are plain
        # attributes, never registry counters: the stats dump is what
        # the scalar-vs-fused differential diffs, and it must stay
        # bit-identical while these numbers necessarily differ.
        self._fused_enabled = False
        self._fuse_state = None  # None=unresolved, False=ineligible, else mode
        self._fuse_fails = 0
        self._fuse_skip = 0
        self._fs_windows = 0
        self._fs_fused_issues = 0
        self._fs_scalar_pumps = 0
        self._fuse_breaks: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Enqueue side (called by the L2 miss path / writeback path)
    # ------------------------------------------------------------------
    def enqueue(self, request: MemoryRequest) -> bool:
        """Queue a request; False when the MRQ is full (caller must wait)."""
        coords = self.mapping.decompose(request.addr)
        if self.ras is not None:
            coords = self.ras.map_coords(self.mc_id, coords)
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
        if not self.mrq.entries:
            return
        if self._fused_enabled and self.ras is None and not self._space_waiters:
            skip = self._fuse_skip
            if skip:
                self._fuse_skip = skip - 1
            elif self._fused_drain(now):
                self._fuse_fails = 0
                return
            else:
                fails = self._fuse_fails + 1
                self._fuse_fails = fails
                if fails >= 4:
                    self._fuse_skip = 64 if fails >= 16 else 4 * fails
        self._fs_scalar_pumps += 1
        self._scalar_pump(now)

    def _scalar_pump(self, now: int) -> None:
        entries = self.mrq.entries
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

    # ------------------------------------------------------------------
    # Fused drain (batched miss path)
    # ------------------------------------------------------------------
    def enable_fused_drain(self) -> None:
        """Opt this controller into the batched miss-path drain.

        The drain still proves, per attempt, that a quiescent window
        exists and that the configuration is replayable (stateless
        arbiter, engine introspection hooks) before committing to it —
        any failed precondition falls back to the scalar pump with
        exponential backoff.
        """
        self._fused_enabled = True
        self._fuse_state = None

    def disable_fused_drain(self) -> None:
        self._fused_enabled = False

    def fused_stats(self) -> Dict:
        """Plain (non-registry) drain statistics, for ``repro profile``."""
        return {
            "enabled": self._fused_enabled,
            "windows": self._fs_windows,
            "fused_issues": self._fs_fused_issues,
            "scalar_pumps": self._fs_scalar_pumps,
            "breaks": dict(sorted(self._fuse_breaks.items())),
        }

    def _fuse_break(self, reason: str) -> None:
        breaks = self._fuse_breaks
        breaks[reason] = breaks.get(reason, 0) + 1

    def _fuse_eligible(self):
        """Static eligibility: engine hooks + a stateless arbiter.

        Resolved lazily at the first pump attempt (after any validation
        seams have wrapped the instance) and cached; returns the inline
        arbitration mode or False.
        """
        engine = self.engine
        for attr in ("cycle_quiescent", "peek_next_time", "run_deadline"):
            if not hasattr(engine, attr):
                return False
        # Only the stateless arbiters can be replayed inline; the
        # stateful ones (write-drain, batch) must see every select().
        scheduler_type = type(self.scheduler)
        if scheduler_type is FrFcfsScheduler:
            return "fr-fcfs"
        if scheduler_type is FcfsScheduler:
            return "fcfs"
        return False

    def _fused_drain(self, t0: int) -> bool:
        """Drain the MRQ analytically inside a proven-quiescent window.

        Replays the scalar pump cadence in virtual time ``vt``: the
        engine proves no foreign event fires in ``[t0, barrier)``, every
        cycle in the window is refresh-blackout-free (so a bank is ready
        exactly when ``_bank_ready <= vt``), and completions issued by
        the drain itself shrink the barrier — so each virtual pump is
        bit-identical to the scalar pump event it replaces, including
        the exact wake-up event left behind on exit.  Returns False
        *before any state change* when a precondition fails; the caller
        then runs the scalar pump.
        """
        mode = self._fuse_state
        if mode is None:
            mode = self._fuse_eligible()
            self._fuse_state = mode
        if not mode:
            self._fuse_break("ineligible")
            return False
        mrq = self.mrq
        entries = mrq.entries
        if len(entries) < 2:
            self._fuse_break("shallow-queue")
            return False
        engine = self.engine
        if not engine.cycle_quiescent():
            self._fuse_break("cycle-busy")
            return False
        limit = getattr(engine, "horizon", 512) - 1
        wend = engine.peek_next_time(limit)
        barrier = (t0 + limit + 1) if wend is None else wend
        deadline = engine.run_deadline
        if deadline is not None and barrier > deadline + 1:
            barrier = deadline + 1
        blackouts = {}
        for rank in self.device.ranks:
            refresh = rank.refresh
            blackout = refresh.next_blackout_start(t0)
            blackouts[refresh] = blackout
            if blackout < barrier:
                barrier = blackout
        gap = self._issue_gap
        if barrier - t0 <= gap:
            # At most one virtual pump would fit: the scalar pump does
            # the same work for less setup.  Covers both short event
            # windows and t0 sitting inside a refresh blackout.
            self._fuse_break("window-short")
            return False
        frfcfs = mode == "fr-fcfs"
        issue = self._issue
        banks = mrq.banks
        rows = mrq.rows
        vt = t0
        issued = 0
        # Inline read-issue fast path: legal only while every seam it
        # would bypass is un-instrumented (no wrapped _issue on this
        # controller, no wrapped transfer on the bus; wrapped banks are
        # re-checked per entry).  It reproduces _issue's read branch with
        # the device dispatch inlined, the bus reservation open-coded
        # against a locally tracked free_at, and every counter batched
        # into integer accumulators flushed once per window — exact
        # because all increments are integer-valued and well inside
        # float's exact range, so the deferred sums are bit-identical.
        bus = self.bus
        fast = "_issue" not in self.__dict__ and "transfer" not in bus.__dict__
        if fast:
            # Inside [t0, blackout) earliest_available is the identity
            # and the epoch is constant (refresh.py docstring), so a
            # bank whose _epoch already matches can take the row-hit
            # branch of access() without calling it.
            for refresh in blackouts:
                blackouts[refresh] = (blackouts[refresh], refresh.epoch(t0))
        wire = bus.wire_latency
        beat = bus.cycles_per_beat
        line = self.line_size
        occupancy = bus.occupancy_cycles(line)
        bus_free = bus._free_at
        schedule_at = engine.schedule_at
        record_latency = self.read_latency.record
        fast_issued = 0
        wait_sum = 0
        hit_sum = 0
        miss_sum = 0
        queue_sum = 0
        self._fs_windows += 1
        while True:
            n = len(entries)
            # Ready scan over the queue columns: inside the window
            # earliest_start degenerates to _bank_ready (no blackout can
            # push it), so readiness is a plain attribute compare.
            pick = -1
            if frfcfs:
                # First ready entry in arrival order whose row is open
                # (the oldest row hit), else the oldest ready entry.
                # Probes the row-buffer dict directly (same contents
                # check as RowBufferCache.__contains__, sans the call).
                for i in range(n):
                    if banks[i]._bank_ready <= vt:
                        if pick < 0:
                            pick = i
                        if rows[i] in banks[i].row_buffers._entries:
                            pick = i
                            break
            else:
                for i in range(n):
                    if banks[i]._bank_ready <= vt:
                        pick = i
                        break
            if pick < 0:
                # Nothing ready at vt.  The earliest bank-ready time is
                # exactly the scalar pump's next_ready while it stays
                # inside the blackout-free window; advance virtually if
                # it does, otherwise leave the precise wake-up event the
                # scalar pump would have left and stop.
                m = banks[0]._bank_ready
                for i in range(1, n):
                    ready_at = banks[i]._bank_ready
                    if ready_at < m:
                        m = ready_at
                if m < barrier:
                    vt = m
                    continue
                next_ready = None
                for entry in entries:
                    start = entry.bank.earliest_start(vt)
                    if next_ready is None or start < next_ready:
                        next_ready = start
                self._schedule_pump(next_ready)
                break
            row = rows[pick]
            entry = entries[pick]
            mrq.remove_at(pick)
            bank = entry.bank
            request = entry.request
            issued += 1
            if (
                fast
                and not request.is_write
                and "access" not in bank.__dict__
            ):
                request.issued_to_dram_at = vt
                fast_issued += 1
                wait_sum += vt - entry.arrival
                cmd = vt + wire
                info = blackouts.get(bank.refresh)
                buffered = bank.row_buffers._entries
                if (
                    info is not None
                    and cmd < info[0]
                    and bank._epoch == info[1]
                    and bank.page_policy == "open"
                    and row in buffered
                ):
                    # Inline row hit: begin == cmd (blackout-free span,
                    # epoch current, bank ready), so access() collapses
                    # to the MRU touch, the CAS/CCD updates and a hit
                    # count.
                    buffered.move_to_end(row)
                    bt = bank.timing
                    data_time = cmd + bt.t_cas
                    bank._bank_ready = cmd + bt.t_ccd
                    bank._c_row_hits.value += 1.0
                    hit = True
                else:
                    data_time, hit = bank.access(cmd, row, False)
                request.row_buffer_hit = hit
                if hit:
                    hit_sum += 1
                else:
                    miss_sum += 1
                start = data_time if data_time > bus_free else bus_free
                bus_free = start + occupancy
                if start > data_time:
                    queue_sum += start - data_time
                completion = start + beat + wire
                record_latency(completion - entry.arrival)
                schedule_at(completion, request.complete, completion)
            else:
                bus._free_at = bus_free
                completion = issue(entry, vt)
                bus_free = bus._free_at
                if completion is None:
                    # A wrapper swallowed the completion time: the window
                    # can no longer be bounded, so stop after this issue —
                    # the scalar pump's post-issue state is exactly ours.
                    completion = vt + 1
            if completion < barrier:
                barrier = completion
            cand = vt + gap
            self._next_issue_time = cand
            if not entries:
                # Queue drained: the scalar pump leaves no wake-up event
                # in this state either (the next enqueue schedules one).
                break
            if cand >= barrier:
                self._schedule_pump(cand)
                break
            vt = cand
        bus._free_at = bus_free
        if fast_issued:
            self._c_issued.value += float(fast_issued)
            self._c_queue_wait_cycles.value += float(wait_sum)
            self._c_row_hits.value += float(hit_sum)
            self._c_row_misses.value += float(miss_sum)
            bus._c_transfers.value += float(fast_issued)
            bus._c_busy_cycles.value += float(fast_issued * occupancy)
            bus._c_bytes.value += float(fast_issued * line)
            if queue_sum:
                bus._c_queue_cycles.value += float(queue_sum)
        self._fs_fused_issues += issued
        return True

    def _release_waiters(self) -> None:
        while self._space_waiters and not self.mrq.is_full:
            waiter = self._space_waiters.popleft()
            waiter()

    def _issue(self, entry: MrqEntry, now: int) -> int:
        """Issue one entry; returns the completion-event time.

        The return value lets the fused drain bound its window by the
        completions it schedules itself (the validation seam in
        :mod:`repro.validate.hooks` forwards it when the method is
        wrapped).
        """
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
            if self.ras is not None:
                self.ras.on_write(self, coords, request)
            self.engine.schedule_at(done, request.complete, done)
            return done
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
            if self.ras is not None:
                # ECC check/correct/retry may delay (or poison) the data
                # before it crosses the channel back to the MC.
                data_time = self.ras.on_read(
                    self, coords, request, cmd_arrival, data_time
                )
            start, _ = self.bus.transfer(self.line_size, data_time)
            first_beat = start + self.bus.cycles_per_beat + self.bus.wire_latency
            self.read_latency.record(first_beat - entry.arrival)
            self.engine.schedule_at(first_beat, request.complete, first_beat)
            return first_beat

    def _note_row_outcome(self, request: MemoryRequest, hit: bool) -> None:
        request.row_buffer_hit = hit
        if hit:
            self._c_row_hits.value += 1.0
        else:
            self._c_row_misses.value += 1.0

    # ------------------------------------------------------------------
    # Snapshot seam
    # ------------------------------------------------------------------
    def capture_state(self, ctx) -> dict:
        """Everything this channel owns: MRQ, device, bus, scheduler,
        pump/backoff machinery, and the read-latency distribution."""
        return {
            "v": 1,
            "mrq": self.mrq.capture_state(ctx),
            "device": self.device.capture_state(),
            "bus": self.bus.capture_state(),
            "scheduler": self.scheduler.capture_state(),
            "read_latency": self.read_latency.capture_state(),
            "next_issue_time": self._next_issue_time,
            "pump_event": (
                None
                if self._pump_event is None
                else ctx.ref_event(self._pump_event)
            ),
            "space_waiters": [
                ctx.encode_callback(cb) for cb in self._space_waiters
            ],
            "fused_enabled": self._fused_enabled,
            "fuse_state": self._fuse_state,
            "fuse_fails": self._fuse_fails,
            "fuse_skip": self._fuse_skip,
            "fs_windows": self._fs_windows,
            "fs_fused_issues": self._fs_fused_issues,
            "fs_scalar_pumps": self._fs_scalar_pumps,
            "fuse_breaks": list(self._fuse_breaks.items()),
        }

    def restore_state(self, state: dict, ctx) -> None:
        from ..common.versioning import check_state_version

        check_state_version(state, 1, "MemoryController")
        self.device.restore_state(state["device"])
        self.mrq.restore_state(state["mrq"], ctx, self.device)
        self.bus.restore_state(state["bus"])
        self.scheduler.restore_state(state["scheduler"])
        self.read_latency.restore_state(state["read_latency"])
        self._next_issue_time = state["next_issue_time"]
        self._pump_event = (
            None
            if state["pump_event"] is None
            else ctx.get_event(state["pump_event"])
        )
        self._space_waiters = deque(
            ctx.decode_callback(enc) for enc in state["space_waiters"]
        )
        self._fused_enabled = state["fused_enabled"]
        self._fuse_state = state["fuse_state"]
        self._fuse_fails = state["fuse_fails"]
        self._fuse_skip = state["fuse_skip"]
        self._fs_windows = state["fs_windows"]
        self._fs_fused_issues = state["fs_fused_issues"]
        self._fs_scalar_pumps = state["fs_scalar_pumps"]
        self._fuse_breaks = dict(state["fuse_breaks"])
