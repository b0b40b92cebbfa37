"""Per-core L1 data cache.

Write policy is write-back / write-allocate; a store miss issues a
read-for-ownership to the L2 and marks the line dirty on fill.  Misses
allocate in a small L1 MSHR file (8 entries in Table 1); when it is full
the access is rejected and the core stalls until an entry frees — this
is the backpressure path that lets faster memory expose the L2 MHA as
the next bottleneck (Section 5).  The file is a plain dict of line
address to :class:`~repro.mshr.base.MshrEntry`, capped at
``mshr_entries``: Table 1's L1 MSHR is the single-cycle fully
associative organization, so a lookup is one dict probe and nothing
reads a probe count.

:meth:`L1Cache.access` reports its outcome by return value: ``STALL``
(falsy), ``MISS`` (truthy; the data arrives later through ``on_data``)
or ``HIT`` (complete now, nothing is called back).  A caller that only
tests truth treats a hit as an accepted access.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, Optional

from ..common.request import AccessType, MemoryRequest
from ..common.stats import StatRegistry
from ..engine.simulator import Engine
from ..mshr.base import MshrEntry
from .array import CacheArray
from .l2 import BankedL2Cache
from .prefetch import Prefetcher

#: :meth:`L1Cache.access` outcomes.
STALL = 0
MISS = 1
HIT = 2


class L1Cache:
    """One core's L1D: tag array + MSHR file + L2 port."""

    __slots__ = (
        "engine", "core_id", "array", "mshr", "mshr_entries", "l2", "stats",
        "_c_accesses", "_c_hits", "_c_misses", "_c_secondary_misses",
        "_c_mshr_rejects", "_c_writebacks", "latency", "_observe",
        "_free_waiters", "_fill_dirty", "on_data",
    )

    def __init__(
        self,
        engine: Engine,
        core_id: int,
        array: CacheArray,
        mshr_entries: int,
        l2: BankedL2Cache,
        registry: Optional[StatRegistry] = None,
        latency: int = 3,
        prefetcher: Optional[Prefetcher] = None,
    ) -> None:
        if mshr_entries < 1:
            raise ValueError("MSHR capacity must be >= 1")
        self.engine = engine
        self.core_id = core_id
        self.array = array
        #: The MSHR file: line address -> entry, at most ``mshr_entries``.
        self.mshr: Dict[int, MshrEntry] = {}
        self.mshr_entries = mshr_entries
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
        # The one call a demand access makes into the prefetcher.
        self._observe = prefetcher.observe if prefetcher is not None else None
        self._free_waiters: Deque[Callable[[], None]] = deque()
        # line -> dirty-on-fill flag for in-flight fetches (RFO tracking).
        self._fill_dirty: Dict[int, bool] = {}
        #: ``on_data(record, completed_at)``: the owning core's fill
        #: callback, wired once when the core is built.
        self.on_data: Optional[Callable[[Any, int], None]] = None

    def access(self, addr: int, pc: int, is_write: bool, record: Any) -> int:
        """Attempt a demand access: ``HIT``, ``MISS`` or ``STALL``.

        ``HIT``: the data is usable ``latency`` cycles from now and the
        caller completes ``record`` itself.  ``MISS``: ``record`` (the
        core's in-flight op; the L1 only holds it) joins an MSHR entry and
        the fill hands it back through ``on_data(record, completed_at)``.
        ``STALL`` (falsy): the L1 MSHR file is full.  Stores take the same
        paths — the store buffer hides their latency from commit, though
        they still consume MSHRs and generate fills.
        """
        array = self.array
        line = addr & array._align_mask
        self._c_accesses.value += 1.0
        cache_set = array._sets[(line >> array._line_shift) % array.num_sets]
        if cache_set is not None and line in cache_set:
            self._c_hits.value += 1.0
            cache_set[line] = cache_set.pop(line) or is_write  # CacheArray.touch
            observe = self._observe
            if observe is not None:
                candidates = observe(addr, pc, False)
                if candidates:
                    self._prefetch(candidates, pc)
            return HIT

        # Miss path.
        mshr = self.mshr
        entry = mshr.get(line)
        if entry is not None:
            self._c_secondary_misses.value += 1.0
            entry.requests.append(record)
            if is_write:
                self._fill_dirty[line] = True
            return MISS
        if len(mshr) >= self.mshr_entries:
            self._c_mshr_rejects.value += 1.0
            return STALL

        self._c_misses.value += 1.0
        new_entry = mshr[line] = MshrEntry(line)
        new_entry.requests.append(record)
        self._fill_dirty[line] = is_write
        fetch = MemoryRequest(
            line,
            AccessType.READ,
            self.core_id,
            pc,
            self.engine.now,
            partial(self._fill, new_entry),
        )
        self.engine.schedule(self.latency, self.l2.access, fetch)
        observe = self._observe
        if observe is not None:
            candidates = observe(addr, pc, True)
            if candidates:
                self._prefetch(candidates, pc)
        return MISS

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
        # Set by the allocating access and by every merged store.
        dirty = self._fill_dirty.pop(line, False)
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
        mshr = self.mshr
        del mshr[line]
        on_data = self.on_data
        for record in entry.requests:
            on_data(record, now)
        waiters = self._free_waiters
        while waiters and len(mshr) < self.mshr_entries:
            waiters.popleft()()

    def _prefetch(self, candidates, pc: int) -> None:
        """L1 prefetch (next-line + IP-stride in Table 1) into the L1.

        ``candidates`` are line addresses, each named once; a line
        already resident or in flight is skipped, and a full MSHR file
        issues nothing more.
        """
        mshr = self.mshr
        array = self.array
        sets = array._sets
        for line in candidates:
            if len(mshr) >= self.mshr_entries:
                return
            cache_set = sets[(line >> array._line_shift) % array.num_sets]
            if (cache_set is not None and line in cache_set) or line in mshr:
                continue
            entry = mshr[line] = MshrEntry(line)
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
    def functional_access(self, addr: int, is_write: bool) -> None:
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
        self.l2.functional_fetch(line)
        victim = self.array.fill(line, dirty=is_write)
        if victim is not None and victim[1]:
            self.l2.functional_writeback(victim[0])

    def miss_rate(self) -> float:
        accesses = self.stats.get("accesses")
        return self.stats.get("misses") / accesses if accesses else 0.0
