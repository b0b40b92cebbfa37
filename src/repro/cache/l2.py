"""The shared, banked L2 cache and its miss handling architecture.

Organization follows Figure 5(b): 16 banks, each bank aligned (in the
streamlined page-interleaved mode) with exactly one MSHR bank and one
memory controller, so a miss in L2 bank *b* allocates only in the MSHR
bank feeding its MC and never crosses a global bus.  The
line-interleaved mode (conventional 64 B banking) is retained for the
ablation: there every bank may talk to every MC, modelled by a shared
command/request bus that every miss must cross before reaching its MC.

Timing model per access: the target bank serializes accesses
(``bank_occupancy`` cycles apart), tags resolve after ``latency`` cycles,
and MSHR operations cost their probe count in cycles (one probe per
cycle, Section 5.2).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Deque, Dict, List, Optional, Sequence

from ..common.request import AccessType, MemoryRequest
from ..common.stats import StatRegistry
from ..common.units import log2int
from ..engine.simulator import Engine
from ..interconnect.bus import Bus
from ..memctrl.memsys import MainMemory
from ..mshr.base import MshrEntry, MshrFile
from .array import CacheArray
from .prefetch import Prefetcher


class BankedL2Cache:
    """Shared L2: banked tag arrays + banked MSHRs + memory interface."""

    # 34 fields: past CPython 3.11's 30-key limit an unslotted instance
    # keeps them in a plain dict from construction.
    __slots__ = (
        "engine", "array", "memory", "mshr_files", "stats", "_c_accesses",
        "_c_hits", "_c_misses", "_c_writeback_hits", "_c_writeback_misses",
        "_c_prefetch_misses", "_c_prefetch_partial_hits", "_c_mshr_merges",
        "_c_mshr_stalls", "_c_mshr_stall_cycles", "_c_evictions",
        "_core_demand_accesses", "_core_demand_misses", "num_banks",
        "interleave", "latency", "bank_occupancy", "routing_latency",
        "line_size", "_line_shift", "_page_shift", "_bank_shift",
        "_mshr_shift", "prefetcher", "request_bus", "_bank_free_at",
        "_mshr_waiters", "_inclusion_listeners", "_prefetched_lines",
    )

    def __init__(
        self,
        engine: Engine,
        array: CacheArray,
        memory: MainMemory,
        mshr_files: Sequence[MshrFile],
        registry: Optional[StatRegistry] = None,
        num_banks: int = 16,
        interleave: str = "page",
        latency: int = 9,
        bank_occupancy: int = 2,
        routing_latency: int = 2,
        page_size: int = 4096,
        prefetcher: Optional[Prefetcher] = None,
        request_bus: Optional[Bus] = None,
    ) -> None:
        if interleave not in ("page", "line"):
            raise ValueError("interleave must be 'page' or 'line'")
        if num_banks < 1 or latency < 1 or bank_occupancy < 1:
            raise ValueError("num_banks, latency, bank_occupancy must be >= 1")
        if len(mshr_files) not in (1, memory.num_mcs):
            raise ValueError(
                f"{len(mshr_files)} MSHR files: need one, or one per memory "
                f"controller ({memory.num_mcs})"
            )
        self.engine = engine
        self.array = array
        self.memory = memory
        self.mshr_files = list(mshr_files)
        registry = registry if registry is not None else StatRegistry()
        self.stats = registry.group("l2")
        # Bound counter slots for the per-access path; per-core demand
        # counters are cached lazily by core id (no f-string per access).
        self._c_accesses = self.stats.counter("accesses")
        self._c_hits = self.stats.counter("hits")
        self._c_misses = self.stats.counter("misses")
        self._c_writeback_hits = self.stats.counter("writeback_hits")
        self._c_writeback_misses = self.stats.counter("writeback_misses")
        self._c_prefetch_misses = self.stats.counter("prefetch_misses")
        self._c_prefetch_partial_hits = self.stats.counter("prefetch_partial_hits")
        self._c_mshr_merges = self.stats.counter("mshr_merges")
        self._c_mshr_stalls = self.stats.counter("mshr_stalls")
        self._c_mshr_stall_cycles = self.stats.counter("mshr_stall_cycles")
        self._c_evictions = self.stats.counter("evictions")
        self._core_demand_accesses = {}
        self._core_demand_misses = {}
        self.num_banks = num_banks
        self.interleave = interleave
        self.latency = latency
        self.bank_occupancy = bank_occupancy
        self.routing_latency = routing_latency
        self.line_size = array.line_size
        self._line_shift = log2int(self.line_size)
        self._page_shift = log2int(page_size)
        # Bank routing precomputed to a shift: one expression per access
        # instead of a string comparison.
        self._bank_shift = (
            self._page_shift if interleave == "page" else self._line_shift
        )
        # MSHR banking mirrors the memory-controller interleaving: one
        # file serves every line, else each MC's lines have their own.
        # Either way the file is ``(addr >> _mshr_shift) % len(files)``
        # (always 0 for one file), the memory mapping's page interleave.
        self._mshr_shift = (
            0 if len(self.mshr_files) == 1
            else log2int(memory.mapping.page_size)
        )
        self.prefetcher = prefetcher
        self.request_bus = request_bus
        self._bank_free_at: List[int] = [0] * num_banks
        self._mshr_waiters: List[Deque[MemoryRequest]] = [
            deque() for _ in self.mshr_files
        ]
        # Inclusion: caches above us, notified when we evict a line so
        # they drop (and surrender dirty data from) their copies.
        self._inclusion_listeners: List = []
        # Lines brought in by prefetch and not yet demanded (for accuracy
        # stats).
        self._prefetched_lines: Dict[int, bool] = {}

    # ------------------------------------------------------------------
    # Address routing
    # ------------------------------------------------------------------
    def bank_index(self, addr: int) -> int:
        """Which L2 bank serves ``addr`` (Section 4.1's interleaving)."""
        return (addr >> self._bank_shift) % self.num_banks

    # ------------------------------------------------------------------
    # Front door
    # ------------------------------------------------------------------
    def access(self, request: MemoryRequest) -> None:
        """Accept a request from an L1 (or the prefetcher).

        READ/PREFETCH requests are completed when their data is available
        at the L2 edge; WRITEBACKs are posted and complete at tag time.
        """
        engine = self.engine
        bank = (request.addr >> self._bank_shift) % self.num_banks
        arrival = engine.now + self.routing_latency
        free_at = self._bank_free_at[bank]
        start = arrival if arrival > free_at else free_at
        self._bank_free_at[bank] = start + self.bank_occupancy
        engine.schedule_at(start + self.latency, self._tag_check, request)

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    def _tag_check(self, request: MemoryRequest) -> None:
        now = self.engine.now
        array = self.array
        line = request.addr & array._align_mask
        self._c_accesses.value += 1.0
        access = request.access
        demand = access.is_demand
        if demand:
            slot = self._core_demand_accesses.get(request.core_id)
            if slot is None:
                slot = self._core_demand_counter(
                    self._core_demand_accesses, "accesses", request.core_id
                )
            slot.value += 1.0
        # CacheArray.lookup, inline: a hit becomes MRU.
        cache_set = array._sets[(line >> array._line_shift) % array.num_sets]
        hit = cache_set is not None and line in cache_set
        if hit:
            cache_set[line] = cache_set.pop(line)

        if access is AccessType.WRITEBACK:
            if hit:
                cache_set[line] = True  # CacheArray.mark_dirty: already MRU
                self._c_writeback_hits.value += 1.0
            else:
                # Non-inclusive corner: forward straight to memory.
                self._c_writeback_misses.value += 1.0
                self._post_memory_writeback(line)
            request.complete(now)
            return

        if hit:
            self._c_hits.value += 1.0
            if self._prefetched_lines.pop(line, None) is not None:
                self.stats.add("prefetch_useful")
            if demand and self.prefetcher is not None:
                self._train_prefetcher(
                    request.addr, request.pc, request.core_id, was_miss=False
                )
            request.complete(now + self.routing_latency)
            return

        self._c_misses.value += 1.0
        if demand:
            slot = self._core_demand_misses.get(request.core_id)
            if slot is None:
                slot = self._core_demand_counter(
                    self._core_demand_misses, "misses", request.core_id
                )
            slot.value += 1.0
            if self.prefetcher is not None:
                self._train_prefetcher(
                    request.addr, request.pc, request.core_id, was_miss=True
                )
        elif access is AccessType.PREFETCH:
            self._c_prefetch_misses.value += 1.0
        self._mshr_path(request, line)

    def _core_demand_counter(self, cache, kind, core_id):
        """A core's first demand ``kind``: its counter (key
        ``core<N>_demand_<kind>``), cached by core id."""
        slot = cache[core_id] = self.stats.counter(f"core{core_id}_demand_{kind}")
        return slot

    def _mshr_path(
        self, request: MemoryRequest, line: Optional[int] = None
    ) -> None:
        """Search/allocate the MSHR bank; stall the request when full."""
        if line is None:
            line = request.addr & self.array._align_mask
        files = self.mshr_files
        bank_idx = (request.addr >> self._mshr_shift) % len(files)
        file = files[bank_idx]

        entry, probes = file.search(line)
        if entry is not None:
            entry.requests.append(request)
            if request.access.is_demand and entry.is_prefetch:
                # A demand merged into a prefetch entry: the prefetch was
                # timely enough to hide part of the miss.
                entry.is_prefetch = False
                self._c_prefetch_partial_hits.value += 1.0
            self._c_mshr_merges.value += 1.0
            return

        new_entry, alloc_probes = file.allocate(line)
        probes += alloc_probes
        if new_entry is None:
            self._c_mshr_stalls.value += 1.0
            request.mshr_stall_start = self.engine.now
            self._mshr_waiters[bank_idx].append(request)
            return

        new_entry.requests.append(request)
        new_entry.is_prefetch = request.access is AccessType.PREFETCH
        engine = self.engine
        stall_start = request.mshr_stall_start
        if stall_start is not None:
            request.mshr_stall_start = None
            self._c_mshr_stall_cycles.value += engine.now - stall_start
        mem_request = MemoryRequest(
            line,
            AccessType.READ,
            request.core_id,
            request.pc,
            engine.now,
            partial(self._fill, new_entry, bank_idx),
        )
        engine.schedule(
            probes,
            self._enqueue_memory if self.request_bus is None
            else self._send_to_memory,
            mem_request,
        )

    def _send_to_memory(self, mem_request: MemoryRequest) -> None:
        """Conventional line-interleaved banking: every bank shares one
        command bus to all MCs (8 B command/address beat)."""
        _, arrival = self.request_bus.transfer(8, self.engine.now)
        self.engine.schedule_at(arrival, self._enqueue_memory, mem_request)

    def _enqueue_memory(self, mem_request: MemoryRequest) -> None:
        if not self.memory.enqueue(mem_request):
            self.stats.add("mrq_full_retries")
            self.memory.wait_for_space(
                mem_request.addr,
                partial(self._enqueue_memory, mem_request),
            )

    def _fill(self, entry: MshrEntry, bank_idx: int, mem_request: MemoryRequest) -> None:
        """Memory returned the line: fill, deallocate, respond, wake."""
        now = self.engine.now
        line = entry.line_addr
        victim = self.array.fill(line, dirty=False)
        if victim is not None:
            victim_line, victim_dirty = victim
            self._c_evictions.value += 1.0
            self._prefetched_lines.pop(victim_line, None)
            # Inclusion: the L1s must drop their copies; a dirty L1 copy
            # supersedes whatever we held and must reach memory.
            for upper in self._inclusion_listeners:
                if upper.back_invalidate(victim_line):
                    victim_dirty = True
                    self.stats.add("inclusion_dirty_recalls")
            if victim_dirty:
                self._post_memory_writeback(victim_line)
        if entry.is_prefetch:
            self._prefetched_lines[line] = True
            self.stats.add("prefetch_fills")

        # One cycle per deallocation probe.
        delay = self.mshr_files[bank_idx].deallocate(line)

        engine = self.engine
        schedule_at = engine.schedule_at
        prefetch = AccessType.PREFETCH
        respond_at = now + delay + self.routing_latency
        pending = None
        for waiting in entry.requests:
            if waiting.access is prefetch:
                waiting.complete(respond_at - self.routing_latency)
            elif pending is None:
                pending = [waiting]
            else:
                pending.append(waiting)
        if pending is not None:
            if len(pending) == 1:
                waiting = pending[0]
                schedule_at(respond_at, waiting.complete, respond_at)
            else:
                # Batched delivery: the per-waiter completion events
                # would carry consecutive sequence numbers at the same
                # cycle, so nothing can interleave between them — one
                # event completing the run in order is bit-identical.
                schedule_at(respond_at, self._deliver_fills, pending, respond_at)
        # Only a non-empty waiter queue needs a drain pass.  A waiter
        # that arrives later necessarily found the file full again, and
        # the deallocate that next frees a slot schedules its own drain
        # then — so no waiter can be stranded by skipping this event.
        if self._mshr_waiters[bank_idx]:
            engine.schedule(delay, self._drain_mshr_waiters, bank_idx)

    def _deliver_fills(self, waiters, at: int) -> None:
        """Complete a run of same-cycle fill waiters in arrival order."""
        for waiting in waiters:
            waiting.complete(at)

    def _drain_mshr_waiters(self, bank_idx: int) -> None:
        waiters = self._mshr_waiters[bank_idx]
        file = self.mshr_files[bank_idx]
        # Every organization's ``allocate`` refuses only when the file
        # is full, so a popped waiter is never re-queued here.
        while waiters and file.occupancy < file.capacity_limit:
            self._mshr_path(waiters.popleft())

    # ------------------------------------------------------------------
    # Writebacks and prefetch
    # ------------------------------------------------------------------
    def _post_memory_writeback(self, line: int) -> None:
        self.stats.add("memory_writebacks")
        wb = MemoryRequest(line, AccessType.WRITEBACK, created_at=self.engine.now)
        self._enqueue_memory(wb)

    def _train_prefetcher(
        self, addr: int, pc: int, core_id: int, was_miss: bool
    ) -> None:
        """Issue the prefetcher's candidates for one demand access."""
        array = self.array
        sets = array._sets
        files = self.mshr_files
        shift = self._mshr_shift
        for line in self.prefetcher.observe(addr, pc, was_miss):
            cache_set = sets[(line >> array._line_shift) % array.num_sets]
            if cache_set is not None and line in cache_set:
                continue
            file = files[(line >> shift) % len(files)]
            if file.occupancy >= file.capacity_limit:
                continue  # never stall the pipe for a prefetch
            entry, _ = file.search(line)
            if entry is not None:
                continue
            self.stats.add("prefetches_issued")
            prefetch = MemoryRequest(
                line,
                AccessType.PREFETCH,
                core_id=core_id,
                pc=pc,
                created_at=self.engine.now,
            )
            self.access(prefetch)

    # ------------------------------------------------------------------
    # Functional-warmup path
    # ------------------------------------------------------------------
    def functional_fetch(self, line: int) -> None:
        """Warm tags/LRU for one demanded line; no events, no stats.

        State transitions mirror the detailed demand-miss path: backend
        fetch, fill, inclusion back-invalidation of L1 copies on
        eviction, and dirty-victim writeback — minus MSHRs, timing, and
        counters.  Prefetchers are deliberately not trained (see
        :meth:`L1Cache.functional_access`).
        """
        if self.array.touch(line):
            return
        line = self.array.align(line)
        self.memory.functional_fetch(line)
        self._functional_fill(line)

    def functional_writeback(self, line: int) -> None:
        """Absorb a functional writeback from an L1."""
        line = self.array.align(line)
        if self.array.lookup(line):
            self.array.mark_dirty(line)
        else:
            # Non-inclusive corner: forward straight to memory.
            self.memory.functional_writeback(line)

    def _functional_fill(self, line: int) -> None:
        victim = self.array.fill(line, dirty=False)
        if victim is None:
            return
        victim_line, victim_dirty = victim
        self._prefetched_lines.pop(victim_line, None)
        for upper in self._inclusion_listeners:
            # Straight to the array: back_invalidate() would count stats.
            dirty = upper.array.invalidate(victim_line)
            if dirty:
                victim_dirty = True
        if victim_dirty:
            self.memory.functional_writeback(victim_line)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def miss_rate(self) -> float:
        accesses = self.stats.get("accesses")
        return self.stats.get("misses") / accesses if accesses else 0.0

    def mshr_occupancy(self) -> int:
        return sum(f.occupancy for f in self.mshr_files)

    def register_upper_level(self, cache) -> None:
        """Enrol an L1 for inclusion back-invalidation on L2 evictions."""
        self._inclusion_listeners.append(cache)
