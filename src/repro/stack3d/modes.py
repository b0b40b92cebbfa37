"""The 3D stack as an L4 DRAM cache with tags in SRAM.

The paper models the stack only as flat OS-visible memory
(``stack_mode="memory"``); its Section 6 argues that re-architected
stacked memory beats spending the same stack on cache.
``stack_mode="cache"`` runs the other side of that comparison: every
physical address lives in an off-chip DRAM channel, and the stack holds
a set-associative cache of it whose tags sit on the processor die
(charged against the L2's capacity by the machine).

:class:`StackModeMemory` makes that machine runnable behind the exact
interface the L2 already speaks (``enqueue`` / ``wait_for_space`` /
``mapping`` / functional warmup), so the rest of the hierarchy —
MSHRs, checkers, sampling — is unchanged.  In memory mode the facade
is *not constructed*: the machine is byte-for-byte the paper's model.

Design constraints inherited from the rest of the repo:

* **Bit-identity at the boundary.**  When the hit path needs no
  translation and no tag latency (``l4_tag_latency=0``, direct-mapped
  identity frames, warm start), ``enqueue`` forwards the *original*
  request object synchronously — the stack DRAM transcript is
  cycle-identical to memory mode (gated by
  ``tests/stack3d/test_mode_equivalence.py``).
* **Deadlock-free fallback.**  Misses are always absorbed (``enqueue``
  returns True); when the L4 MSHR file is full the line joins a FIFO
  waitlist drained on every deallocate, and all internal sends retry
  through ``wait_for_space`` chains.  ``occupancy()`` feeds the
  machine's watchdog/drain probes.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..common.request import AccessType, MemoryRequest
from ..common.stats import StatRegistry
from ..mshr.factory import make_mshr

#: SRAM bytes of tag/state per cached line (tag + valid + dirty + LRU).
SRAM_TAG_BYTES_PER_LINE = 8


def sram_tag_bytes(cache_bytes: int, line_size: int) -> int:
    """SRAM footprint of a tags-in-SRAM directory for ``cache_bytes``."""
    return (cache_bytes // line_size) * SRAM_TAG_BYTES_PER_LINE


class SramTagStore:
    """Tags-in-SRAM directory over the stack.

    Wraps a :class:`~repro.cache.array.CacheArray` and additionally
    tracks which *stack frame* each resident line occupies, so hits can
    be translated to stack DRAM addresses.  Frames are assigned
    first-fill-first within each set and recycled from victims, which
    makes the direct-mapped (``assoc=1``) layout the identity map:
    line ``L``'s frame address is ``L mod cache_bytes``.
    """

    def __init__(self, cache_bytes: int, assoc: int, line_size: int) -> None:
        from ..cache.array import CacheArray

        self.array = CacheArray(cache_bytes, assoc, line_size)
        self.assoc = assoc
        self.line_size = line_size
        self.num_sets = self.array.num_sets
        self._frame_of: Dict[int, int] = {}
        self._set_fill: List[int] = [0] * self.num_sets

    def probe(self, line: int) -> bool:
        return self.array.probe(line)

    def lookup(self, line: int) -> Optional[int]:
        """Hit test with replacement update; frame address on a hit."""
        if self.array.lookup(line):
            return self._frame_of[line] * self.line_size
        return None

    def frame_addr(self, line: int) -> int:
        return self._frame_of[line] * self.line_size

    def mark_dirty(self, line: int) -> None:
        self.array.mark_dirty(line)

    def fill(
        self, line: int, dirty: bool = False
    ) -> Tuple[int, Optional[Tuple[int, bool, int]]]:
        """Insert; returns ``(frame_addr, victim)`` with victim =
        ``(line, dirty, frame_addr)`` or None."""
        if self.array.probe(line):  # racing refill: merge dirty only
            self.array.fill(line, dirty)
            return self.frame_addr(line), None
        set_idx = self.array.set_index(line)
        victim = self.array.fill(line, dirty)
        if victim is not None:
            vline, vdirty = victim
            frame = self._frame_of.pop(vline)
            victim_info = (vline, vdirty, frame * self.line_size)
        else:
            frame = set_idx * self.assoc + self._set_fill[set_idx]
            self._set_fill[set_idx] += 1
            victim_info = None
        self._frame_of[line] = frame
        return frame * self.line_size, victim_info

    def warm_start(self) -> None:
        """Preload every way of every set resident-clean.

        Set ``s`` receives lines ``s, s + num_sets, ...`` (line-index
        units), so with ``assoc=1`` the preloaded state is exactly the
        identity mapping the equivalence battery needs.
        """
        for way in range(self.assoc):
            for set_idx in range(self.num_sets):
                self.fill((set_idx + way * self.num_sets) * self.line_size)

    @property
    def resident_lines(self) -> int:
        return self.array.resident_lines


class _Fill:
    """In-flight off-chip fetch for one line: who waits, what merged."""

    __slots__ = ("waiters", "dirty")

    def __init__(self, first: MemoryRequest) -> None:
        self.waiters: List[MemoryRequest] = [first]
        self.dirty = False


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
class StackModeMemory:
    """The stacked L4 + off-chip DRAM behind the MainMemory interface."""

    def __init__(
        self,
        engine,
        stack,
        offchip,
        registry: Optional[StatRegistry] = None,
        *,
        capacity: int,
        assoc: int = 8,
        tag_latency: int = 2,
        mshr_entries: int = 16,
        warm_start: bool = False,
        line_size: int = 64,
        name: str = "l4",
    ) -> None:
        self.engine = engine
        self._stack = stack
        self._offchip = offchip
        self._line_mask = ~(line_size - 1)
        self._tag_latency = tag_latency
        registry = registry if registry is not None else StatRegistry()
        self.stats = registry.group(name)
        self._c_accesses = self.stats.counter("accesses")
        self._c_hits = self.stats.counter("hits")
        self._c_misses = self.stats.counter("misses")
        self._c_merges = self.stats.counter("merges")
        self._c_writeback_hits = self.stats.counter("writeback_hits")
        self._c_writeback_misses = self.stats.counter("writeback_misses")
        self._c_fills = self.stats.counter("fills")
        self._c_dirty_evictions = self.stats.counter("dirty_evictions")
        self._c_offchip_reads = self.stats.counter("offchip_reads")
        self._c_offchip_writebacks = self.stats.counter("offchip_writebacks")
        self._c_mshr_stalls = self.stats.counter("mshr_stalls")

        self._mshr = make_mshr("conventional", mshr_entries, line_size)
        self._inflight: Dict[int, _Fill] = {}
        self._mshr_waitlist: Deque[int] = deque()

        self._tags = SramTagStore(capacity, assoc, line_size)
        if warm_start:
            self._tags.warm_start()
        # Tags resolved in the same cycle: decide synchronously, so a
        # hit can hand the original request to the stack.
        self._sync = tag_latency == 0

    # -- MainMemory-compatible interface --------------------------------
    @property
    def mapping(self):
        return self._stack.mapping

    @property
    def num_mcs(self) -> int:
        return self._stack.num_mcs

    @property
    def line_size(self) -> int:
        return self._stack.line_size

    @property
    def controllers(self):
        """Every MC of both systems (checkers instrument them all)."""
        return list(self._stack.controllers) + list(self._offchip.controllers)

    @property
    def offchip(self):
        return self._offchip

    def row_hit_rate(self) -> float:
        """Stack row-buffer hit rate (parity with memory mode)."""
        return self._stack.row_hit_rate()

    def occupancy(self) -> int:
        """Requests the facade itself holds (feeds the hang watchdog and
        the sampling drain; MC queue depths are counted separately)."""
        waiting = sum(len(f.waiters) for f in self._inflight.values())
        return self._mshr.occupancy + len(self._mshr_waitlist) + waiting

    def enqueue(self, request: MemoryRequest) -> bool:
        if self._sync:
            return self._cache_access(request, sync=True)
        self.engine.schedule(self._tag_latency, self._cache_access, request)
        return True

    def wait_for_space(self, addr: int, callback: Callable[[], None]) -> None:
        line = addr & self._line_mask
        if self._sync and self._tags.probe(line):
            # Only the synchronous hit path can have refused: the stack
            # MRQ was full, so wait on the frame's controller.
            self._stack.wait_for_space(self._tags.frame_addr(line), callback)
            return
        self.engine.schedule(1, callback)

    # -- cache path ------------------------------------------------------
    def _cache_access(self, request: MemoryRequest, sync: bool = False) -> bool:
        self._c_accesses.value += 1.0
        line = request.addr & self._line_mask
        tags = self._tags

        if request.access is AccessType.WRITEBACK:
            frame = tags.lookup(line)
            if frame is not None:
                # The data is written into the stack array.  A refused
                # synchronous forward undoes the counters — the caller
                # retries the whole access later.
                if not self._forward(request, self._stack, frame, sync):
                    self._c_accesses.value -= 1.0
                    return False
                tags.mark_dirty(line)
                self._c_writeback_hits.value += 1.0
                return True
            fill = self._inflight.get(line)
            if fill is not None:
                # Merges with the in-flight fetch: the line will land dirty.
                fill.dirty = True
                self._c_merges.value += 1.0
                request.complete(self.engine.now)
                return True
            self._c_writeback_misses.value += 1.0
            # No-allocate on writeback: forward off-chip.
            self._c_offchip_writebacks.value += 1.0
            return self._forward(request, self._offchip, line, sync)

        fill = self._inflight.get(line)
        if fill is not None:
            fill.waiters.append(request)
            if request.access.is_write:
                fill.dirty = True
            self._c_merges.value += 1.0
            return True

        frame = tags.lookup(line)
        if frame is not None:
            if not self._forward(request, self._stack, frame, sync):
                self._c_accesses.value -= 1.0
                return False
            self._c_hits.value += 1.0
            if request.access.is_write:
                tags.mark_dirty(line)
            return True
        self._c_misses.value += 1.0
        self._begin_fill(line, request)
        return True

    # -- miss machinery --------------------------------------------------
    def _begin_fill(self, line: int, request: MemoryRequest) -> None:
        fill = _Fill(request)
        if request.access.is_write:
            fill.dirty = True
        self._inflight[line] = fill
        entry, _ = self._mshr.allocate(line)
        if entry is None:
            # MSHR file full: FIFO waitlist, drained on each deallocate.
            # The request itself already sits in the fill's waiter list,
            # so nothing is lost — only delayed.
            self._c_mshr_stalls.value += 1.0
            self._mshr_waitlist.append(line)
            return
        self._issue_fetch(line)

    def _issue_fetch(self, line: int) -> None:
        first = self._inflight[line].waiters[0]
        self._c_offchip_reads.value += 1.0
        fetch = MemoryRequest(
            line,
            AccessType.READ,
            core_id=first.core_id,
            pc=first.pc,
            created_at=self.engine.now,
            callback=partial(self._fill_from_offchip, line),
        )
        self._send(self._offchip, fetch)

    def _fill_from_offchip(self, line: int, fetch: MemoryRequest) -> None:
        fill = self._inflight.pop(line)
        frame, victim = self._tags.fill(line, dirty=fill.dirty)
        self._c_fills.value += 1.0
        if victim is not None:
            vline, vdirty, vframe = victim
            if vdirty:
                self._c_dirty_evictions.value += 1.0
                self._evict_dirty(vline, vframe)
        # The fill itself writes the line into the stack array.
        self._send_stack_write(frame)
        now = self.engine.now
        for request in fill.waiters:
            request.complete(now)
        self._mshr.deallocate(line)
        self._drain_mshr_waitlist()

    def _drain_mshr_waitlist(self) -> None:
        # Nothing resizes this private file, so a free slot always allocates.
        while self._mshr_waitlist and self._mshr.occupancy < self._mshr.capacity_limit:
            line = self._mshr_waitlist.popleft()
            self._mshr.allocate(line)
            self._issue_fetch(line)

    def _evict_dirty(self, vline: int, vframe: int) -> None:
        """Victim path: read the line out of the stack, then write it
        back off-chip (the writeback is serialized behind the read)."""
        probe = MemoryRequest(
            vframe,
            AccessType.READ,
            created_at=self.engine.now,
            callback=partial(self._victim_read_done, vline),
        )
        self._send(self._stack, probe)

    def _victim_read_done(self, vline: int, probe: MemoryRequest) -> None:
        self._c_offchip_writebacks.value += 1.0
        writeback = MemoryRequest(
            vline, AccessType.WRITEBACK, created_at=self.engine.now
        )
        self._send(self._offchip, writeback)

    def _send_stack_write(self, frame: int) -> None:
        write = MemoryRequest(
            frame, AccessType.WRITEBACK, created_at=self.engine.now
        )
        self._send(self._stack, write)

    def _send(self, target, request: MemoryRequest) -> None:
        if not target.enqueue(request):
            self.stats.add("mrq_full_retries")
            target.wait_for_space(
                request.addr, partial(self._send, target, request)
            )

    def _forward(
        self, request: MemoryRequest, target, addr: int, sync: bool
    ) -> bool:
        """Send ``request`` to a memory system at ``addr``.

        When no translation is needed the original object goes through
        untouched (this is what makes the warm direct-mapped
        configuration bit-identical to memory mode).  Otherwise a proxy
        carries the translated address and completes the original."""
        if addr == request.addr:
            if target.enqueue(request):
                return True
            if sync:
                return False  # caller (the L2) will wait_for_space
            self.stats.add("mrq_full_retries")
            target.wait_for_space(
                addr, partial(self._forward, request, target, addr, False)
            )
            return True
        proxy = MemoryRequest(
            addr,
            request.access,
            core_id=request.core_id,
            pc=request.pc,
            created_at=self.engine.now,
            callback=partial(self._proxy_done, request),
        )
        self._send(target, proxy)
        return True

    def _proxy_done(self, request: MemoryRequest, proxy: MemoryRequest) -> None:
        request.row_buffer_hit = proxy.row_buffer_hit
        request.complete(proxy.completed_at)

    # -- functional-warmup path -----------------------------------------
    def functional_fetch(self, line: int, core_id: int = 0, pc: int = 0) -> None:
        """Warm L4 shadow state for one fetched line; no events/stats.

        Mirrors the detailed demand path: hits touch the frame's stack
        bank, misses pull functionally from off-chip and fill the shadow
        tags (dirty victims flow back)."""
        line = line & self._line_mask
        frame = self._tags.lookup(line)
        if frame is not None:
            self._stack.functional_touch(frame, is_write=False)
            return
        self._offchip.functional_fetch(line, core_id=core_id, pc=pc)
        frame, victim = self._tags.fill(line, dirty=False)
        if victim is not None:
            vline, vdirty, vframe = victim
            if vdirty:
                self._stack.functional_touch(vframe, is_write=False)
                self._offchip.functional_writeback(vline)
        self._stack.functional_touch(frame, is_write=True)

    def functional_writeback(self, line: int) -> None:
        line = line & self._line_mask
        frame = self._tags.lookup(line)
        if frame is not None:
            self._tags.mark_dirty(line)
            self._stack.functional_touch(frame, is_write=True)
            return
        self._offchip.functional_writeback(line)

    def functional_touch(self, addr: int, is_write: bool) -> None:
        """Open-row-state-only touch (MainMemory interface parity)."""
        frame = self._tags.lookup(addr & self._line_mask)
        if frame is not None:
            self._stack.functional_touch(frame, is_write)
            return
        self._offchip.functional_touch(addr, is_write)

    # -- diagnostics -----------------------------------------------------
    def hit_rate(self) -> float:
        hits = self._c_hits.value
        total = hits + self._c_misses.value
        return hits / total if total else 0.0

    def result_extra(self) -> Dict[str, float]:
        """``MachineResult.extra`` keys for cache mode."""
        return {
            "l4_hit_rate": self.hit_rate(),
            "l4_offchip_reads": self._c_offchip_reads.value,
        }
