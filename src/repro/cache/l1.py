"""Per-core L1 data cache.

Write policy is write-back / write-allocate; a store miss issues a
read-for-ownership to the L2 and marks the line dirty on fill.  Misses
allocate in a small L1 MSHR file (8 entries in Table 1); when it is full
the access is rejected and the core stalls until an entry frees — this
is the backpressure path that lets faster memory expose the L2 MHA as
the next bottleneck (Section 5).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, Optional

from ..common.request import AccessType, MemoryRequest
from ..common.stats import StatRegistry
from ..engine.simulator import Engine
from ..mshr.base import MshrFile
from .array import CacheArray
from .l2 import BankedL2Cache
from .prefetch import CompositePrefetcher


class L1Cache:
    """One core's L1D: tag array + MSHR file + L2 port."""

    def __init__(
        self,
        engine: Engine,
        core_id: int,
        array: CacheArray,
        mshr: MshrFile,
        l2: BankedL2Cache,
        registry: Optional[StatRegistry] = None,
        latency: int = 3,
        prefetcher: Optional[CompositePrefetcher] = None,
    ) -> None:
        self.engine = engine
        self.core_id = core_id
        self.array = array
        self.mshr = mshr
        self.l2 = l2
        registry = registry if registry is not None else StatRegistry()
        self.stats = registry.group(f"l1.core{core_id}")
        # Bound counter slots: one attribute store per event on the hot
        # path instead of a string-keyed dict update.
        self._c_accesses = self.stats.counter("accesses")
        self._c_hits = self.stats.counter("hits")
        self._c_misses = self.stats.counter("misses")
        self._c_secondary_misses = self.stats.counter("secondary_misses")
        self._c_mshr_rejects = self.stats.counter("mshr_rejects")
        self._c_writebacks = self.stats.counter("writebacks")
        self.latency = latency
        self.prefetcher = prefetcher
        self._free_waiters: Deque[Callable[[], None]] = deque()
        # line -> dirty-on-fill flag for in-flight fetches (RFO tracking).
        self._fill_dirty: Dict[int, bool] = {}

    def access(self, request: MemoryRequest) -> bool:
        """Attempt an access; False when the L1 MSHR rejects it (stall).

        On acceptance the request's callback fires when the load data is
        available (stores complete at tag time — the store buffer hides
        their latency from commit, though they still consume MSHRs and
        generate fills).
        """
        now = self.engine.now
        array = self.array
        addr, pc = request.addr, request.pc
        line = addr & array._align_mask
        self._c_accesses.value += 1.0
        if array.lookup(line):
            self._c_hits.value += 1.0
            if request.is_write:
                array.mark_dirty(line)
            request.complete(now + self.latency)
            self._train_prefetcher(addr, pc, was_miss=False)
            return True

        # Miss path.
        entry, _ = self.mshr.search(line)
        if entry is not None:
            self._c_secondary_misses.value += 1.0
            entry.merge(request)
            if request.is_write:
                self._fill_dirty[line] = True
            return True

        new_entry, _ = self.mshr.allocate(line)
        if new_entry is None:
            self._c_mshr_rejects.value += 1.0
            return False

        self._c_misses.value += 1.0
        new_entry.merge(request)
        self._fill_dirty[line] = request.is_write
        fetch = MemoryRequest(
            line,
            AccessType.READ,
            self.core_id,
            pc,
            now,
            partial(self._fill, new_entry),
        )
        self.engine.schedule(self.latency, self.l2.access, fetch)
        self._train_prefetcher(addr, pc, was_miss=True)
        return True

    def on_mshr_free(self, callback: Callable[[], None]) -> None:
        """One-shot notification when an MSHR entry deallocates."""
        self._free_waiters.append(callback)

    def back_invalidate(self, line_addr: int) -> bool:
        """Inclusion victim from the L2: drop our copy.

        Returns True when the dropped copy was dirty — the caller (L2)
        must then write the line back to memory on our behalf, since its
        own copy is being evicted too.
        """
        dirty = self.array.invalidate(line_addr)
        if dirty is None:
            return False
        self.stats.add("back_invalidations")
        return dirty

    def _fill(self, entry, mem_request: MemoryRequest) -> None:
        now = self.engine.now
        line = entry.line_addr
        dirty = self._fill_dirty.pop(line, False)
        # Any merged store also dirties the line.
        dirty = dirty or any(r.is_write for r in entry.requests)
        victim = self.array.fill(line, dirty=dirty)
        if victim is not None and victim[1]:
            self._c_writebacks.value += 1.0
            # Writebacks carry no response, hence no callback.
            writeback = MemoryRequest(
                victim[0],
                AccessType.WRITEBACK,
                core_id=self.core_id,
                created_at=now,
            )
            self.l2.access(writeback)
        self.mshr.deallocate(line)
        for waiting in entry.requests:
            waiting.complete(now)
        while self._free_waiters and not self.mshr.is_full:
            self._free_waiters.popleft()()

    def _train_prefetcher(self, addr: int, pc: int, was_miss: bool) -> None:
        """L1 prefetch (next-line + IP-stride in Table 1) into the L1."""
        if self.prefetcher is None:
            return
        candidates = self.prefetcher.observe(addr, pc, was_miss)
        if not candidates:
            return
        for candidate in candidates:
            line = self.array.align(candidate)
            if self.array.probe(line) or self.mshr.is_full:
                continue
            if self.mshr.contains(line):
                continue
            entry, _ = self.mshr.allocate(line)
            if entry is None:
                continue
            self.stats.add("prefetches_issued")
            self._fill_dirty[line] = False
            fetch = MemoryRequest(
                line,
                AccessType.PREFETCH,
                core_id=self.core_id,
                pc=pc,
                created_at=self.engine.now,
                callback=partial(self._fill, entry),
            )
            self.l2.access(fetch)

    # ------------------------------------------------------------------
    # Functional-warmup path
    # ------------------------------------------------------------------
    def functional_access(self, addr: int, pc: int, is_write: bool) -> None:
        """Warm this L1 (and everything below) for one reference.

        Same demand tag/LRU/dirty transitions as the detailed path, but
        without MSHRs, events, or statistics.  Prefetchers are *not*
        trained here: the detailed path issue-filters candidates through
        MSHR occupancy, which a timing-free walk cannot model — filling
        every candidate was measured to over-warm the caches and bias
        sampled IPC optimistic.  The stride tables survive the skip
        (they are never reset) and re-engage within the detail-warmup
        portion of the next interval.
        """
        if self.array.touch(addr, dirty=is_write):
            return
        line = self.array.align(addr)
        self.l2.functional_fetch(line, core_id=self.core_id, pc=pc)
        victim = self.array.fill(line, dirty=is_write)
        if victim is not None and victim[1]:
            self.l2.functional_writeback(victim[0])

    def miss_rate(self) -> float:
        accesses = self.stats.get("accesses")
        return self.stats.get("misses") / accesses if accesses else 0.0
