"""Stack modes: the 3D stack as flat memory, L4 DRAM cache, or MemCache.

The paper models the stack only as flat OS-visible memory.  "Die-Stacked
DRAM: Memory, Cache, or MemCache?" (PAPERS.md) argues the same silicon
is often more valuable as a large L4 DRAM cache in front of off-chip
DRAM, or as a runtime-partitioned hybrid.  :class:`StackModeMemory`
makes those scenarios runnable behind the exact interface the L2 already
speaks (``enqueue`` / ``wait_for_space`` / ``mapping`` / functional
warmup), so the rest of the hierarchy — MSHRs, checkers, sampling —
is unchanged:

* ``memory``   — the facade is *not constructed*; the machine is
  byte-for-byte today's simulator (gated by
  ``tests/stack3d/test_mode_equivalence.py``).
* ``cache``    — every physical address lives off-chip; the stack holds
  a cache of it.  Tag organizations: ``sram`` (tags on the processor
  die, charged against the L2's capacity) or ``dram`` (alloy-style
  direct-mapped tag-and-data lines in the stack, fronted by a hit/miss
  predictor — see :mod:`repro.stack3d.predictor`).
* ``memcache`` — the bottom ``capacity - cache_bytes`` of the physical
  address space maps 1:1 onto the stack (a fast flat "direct segment");
  the rest lives off-chip, cached by the remaining stack capacity.  An
  observed-reuse monitor can move the boundary at runtime (flushing the
  cache region).  Fractions 0.0/1.0 degenerate exactly to the pure
  modes — pinned by ``tests/stack3d/test_mode_equivalence.py``.

Design constraints inherited from the rest of the repo:

* **Bit-identity at the boundary.**  When the hit path needs no
  translation and no tag latency (SRAM tags, ``l4_tag_latency=0``,
  direct-mapped identity frames, warm start), ``enqueue`` forwards the
  *original* request object synchronously — the stack DRAM transcript
  is cycle-identical to memory mode.
* **Deadlock-free fallback.**  Misses are always absorbed (``enqueue``
  returns True); when the L4 MSHR file is full the line joins a FIFO
  waitlist drained on every deallocate, and all internal sends retry
  through ``wait_for_space`` chains.  ``occupancy()`` feeds the
  machine's watchdog/drain probes.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from ..common.request import AccessType, MemoryRequest
from ..common.stats import StatRegistry
from ..mshr.factory import make_mshr
from .predictor import HitMissPredictor, make_predictor

#: SRAM bytes of tag/state per cached line (tag + valid + dirty + LRU).
SRAM_TAG_BYTES_PER_LINE = 8

#: Extra in-stack bytes per alloy TAD line (the embedded tag).
TAD_TAG_BYTES = 8


def sram_tag_bytes(cache_bytes: int, line_size: int) -> int:
    """SRAM footprint of a tags-in-SRAM directory for ``cache_bytes``."""
    return (cache_bytes // line_size) * SRAM_TAG_BYTES_PER_LINE


def partition_quantum(tags: str, assoc: int, line_size: int) -> int:
    """Smallest legal cache-region size step for a tag organization."""
    if tags == "dram":
        return line_size + TAD_TAG_BYTES
    return assoc * line_size


def quantize_cache_bytes(
    capacity: int, fraction: float, tags: str, assoc: int, line_size: int
) -> int:
    """Clamp+round a cache fraction to a whole number of sets."""
    quantum = partition_quantum(tags, assoc, line_size)
    raw = int(capacity * min(1.0, max(0.0, fraction)))
    return (raw // quantum) * quantum


# ----------------------------------------------------------------------
# Tag organizations
# ----------------------------------------------------------------------
class SramTagStore:
    """Tags-in-SRAM directory over the stack's cache region.

    Wraps a :class:`~repro.cache.array.CacheArray` and additionally
    tracks which *stack frame* each resident line occupies, so hits can
    be translated to stack DRAM addresses.  Frames are assigned
    first-fill-first within each set and recycled from victims, which
    makes the direct-mapped (``assoc=1``) layout the identity map:
    line ``L``'s frame address is ``base + (L mod cache_bytes)``.
    """

    def __init__(
        self, cache_bytes: int, assoc: int, line_size: int, base: int
    ) -> None:
        from ..cache.array import CacheArray

        self.array = CacheArray(cache_bytes, assoc, line_size)
        self.base = base
        self.assoc = assoc
        self.line_size = line_size
        self.capacity_bytes = cache_bytes
        self.num_sets = self.array.num_sets
        self._frame_of: Dict[int, int] = {}
        self._set_fill: List[int] = [0] * self.num_sets

    def probe(self, line: int) -> bool:
        return self.array.probe(line)

    def lookup(self, line: int) -> Optional[int]:
        """Hit test with replacement update; frame address on a hit."""
        if self.array.lookup(line):
            return self.base + self._frame_of[line] * self.line_size
        return None

    def frame_addr(self, line: int) -> int:
        return self.base + self._frame_of[line] * self.line_size

    def tad_addr(self, line: int) -> int:  # interface parity with alloy
        return self.frame_addr(line)

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
            victim_info = (vline, vdirty, self.base + frame * self.line_size)
        else:
            frame = set_idx * self.assoc + self._set_fill[set_idx]
            self._set_fill[set_idx] += 1
            victim_info = None
        self._frame_of[line] = frame
        return self.base + frame * self.line_size, victim_info

    def entries(self) -> Iterator[Tuple[int, bool, int]]:
        for line, dirty in self.array.lines():
            yield line, dirty, self.frame_addr(line)

    def warm_start(self) -> None:
        """Preload every way of every set resident-clean.

        Set ``s`` receives lines ``s, s + num_sets, ...`` (line-index
        units), so with ``assoc=1`` and ``base=0`` the preloaded state
        is exactly the identity mapping the equivalence battery needs.
        """
        for way in range(self.assoc):
            for set_idx in range(self.num_sets):
                self.fill((set_idx + way * self.num_sets) * self.line_size)

    @property
    def resident_lines(self) -> int:
        return self.array.resident_lines

class AlloyTagStore:
    """Alloy-style direct-mapped tags-in-DRAM (TAD lines).

    Each set is one tag-and-data line of ``line_size + TAD_TAG_BYTES``
    bytes in the stack, so the region holds fewer lines than its raw
    capacity — the price of needing no SRAM directory.  This object is
    the *shadow* of the in-DRAM tags (the model's ground truth); the
    simulated hardware only learns hit/miss by reading the TAD, which
    is what the predictor seam arbitrates.
    """

    def __init__(self, cache_bytes: int, line_size: int, base: int) -> None:
        self.line_size = line_size
        self.tad_line = line_size + TAD_TAG_BYTES
        self.num_sets = max(1, cache_bytes // self.tad_line)
        self.base = base
        self.capacity_bytes = cache_bytes
        self.assoc = 1
        self._tags: List[int] = [-1] * self.num_sets
        self._dirty = bytearray(self.num_sets)

    def _set_of(self, line: int) -> int:
        return (line // self.line_size) % self.num_sets

    def probe(self, line: int) -> bool:
        return self._tags[self._set_of(line)] == line

    def lookup(self, line: int) -> Optional[int]:
        set_idx = self._set_of(line)
        if self._tags[set_idx] == line:
            return self.base + set_idx * self.tad_line
        return None

    def frame_addr(self, line: int) -> int:
        return self.base + self._set_of(line) * self.tad_line

    def tad_addr(self, line: int) -> int:
        """The TAD location an access to ``line`` reads — defined even
        when the line is absent (the wasted predicted-hit read)."""
        return self.frame_addr(line)

    def mark_dirty(self, line: int) -> None:
        set_idx = self._set_of(line)
        if self._tags[set_idx] != line:
            raise KeyError(f"line {line:#x} not resident")
        self._dirty[set_idx] = 1

    def fill(
        self, line: int, dirty: bool = False
    ) -> Tuple[int, Optional[Tuple[int, bool, int]]]:
        set_idx = self._set_of(line)
        frame = self.base + set_idx * self.tad_line
        old = self._tags[set_idx]
        if old == line:  # racing refill
            self._dirty[set_idx] |= dirty
            return frame, None
        victim = (old, bool(self._dirty[set_idx]), frame) if old >= 0 else None
        self._tags[set_idx] = line
        self._dirty[set_idx] = 1 if dirty else 0
        return frame, victim

    def entries(self) -> Iterator[Tuple[int, bool, int]]:
        for set_idx, line in enumerate(self._tags):
            if line >= 0:
                yield (
                    line,
                    bool(self._dirty[set_idx]),
                    self.base + set_idx * self.tad_line,
                )

    def warm_start(self) -> None:
        for set_idx in range(self.num_sets):
            self._tags[set_idx] = set_idx * self.line_size
            self._dirty[set_idx] = 0

    @property
    def resident_lines(self) -> int:
        return sum(1 for tag in self._tags if tag >= 0)

class _Fill:
    """In-flight off-chip fetch for one line: who waits, what merged."""

    __slots__ = ("waiters", "dirty", "issued")

    def __init__(self, first: Optional[MemoryRequest]) -> None:
        self.waiters: List[MemoryRequest] = [first] if first is not None else []
        self.dirty = False
        self.issued = False


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
class StackModeMemory:
    """The stack + off-chip DRAM behind the MainMemory interface."""

    def __init__(
        self,
        engine,
        stack,
        offchip,
        registry: Optional[StatRegistry] = None,
        *,
        mode: str = "cache",
        capacity: int,
        cache_fraction: float = 1.0,
        tags: str = "sram",
        assoc: int = 8,
        tag_latency: int = 2,
        predictor: str = "map-i",
        mshr_entries: int = 16,
        warm_start: bool = False,
        repartition_epoch: int = 0,
        partition_step: float = 0.25,
        fraction_min: float = 0.0,
        fraction_max: float = 1.0,
        line_size: int = 64,
        name: str = "l4",
    ) -> None:
        if mode not in ("cache", "memcache"):
            raise ValueError(f"stack-mode facade built for mode {mode!r}")
        if mode == "cache":
            cache_fraction = 1.0
            repartition_epoch = 0
        self.engine = engine
        self.mode = mode
        self._stack = stack
        self._offchip = offchip
        self.capacity = capacity
        self.tags_org = tags
        self.assoc = 1 if tags == "dram" else assoc
        self._line_size = line_size
        self._line_mask = ~(line_size - 1)
        self._tag_latency = tag_latency
        self._predictor_kind = predictor
        self._warm = warm_start
        self._epoch = repartition_epoch
        self._step = partition_step
        self._fraction_min = fraction_min
        self._fraction_max = fraction_max
        registry = registry if registry is not None else StatRegistry()
        self.stats = registry.group(name)
        self._c_accesses = self.stats.counter("accesses")
        self._c_hits = self.stats.counter("hits")
        self._c_misses = self.stats.counter("misses")
        self._c_merges = self.stats.counter("merges")
        self._c_writeback_hits = self.stats.counter("writeback_hits")
        self._c_writeback_misses = self.stats.counter("writeback_misses")
        self._c_direct = self.stats.counter("direct_accesses")
        self._c_bypass = self.stats.counter("bypass_accesses")
        self._c_fills = self.stats.counter("fills")
        self._c_dirty_evictions = self.stats.counter("dirty_evictions")
        self._c_offchip_reads = self.stats.counter("offchip_reads")
        self._c_offchip_writebacks = self.stats.counter("offchip_writebacks")
        self._c_pred_hits = self.stats.counter("pred_hits")
        self._c_pred_misses = self.stats.counter("pred_misses")
        self._c_false_hits = self.stats.counter("false_hits")
        self._c_false_misses = self.stats.counter("false_misses")
        self._c_mshr_stalls = self.stats.counter("mshr_stalls")
        self._c_repartitions = self.stats.counter("repartitions")
        self._c_flushed = self.stats.counter("flushed_lines")

        self._mshr = make_mshr("conventional", mshr_entries, line_size)
        self._inflight: Dict[int, _Fill] = {}
        self._mshr_waitlist: Deque[int] = deque()
        self._pending_partition: Optional[int] = None

        self.cache_fraction = cache_fraction
        self._build_region(
            quantize_cache_bytes(
                capacity, cache_fraction, tags, self.assoc, line_size
            )
        )
        self._epoch_accesses = 0
        self._epoch_hits = 0

    # -- region (re)construction ----------------------------------------
    def _build_region(self, cache_bytes: int) -> None:
        self.cache_bytes = cache_bytes
        self.direct_bytes = self.capacity - cache_bytes
        if cache_bytes == 0:
            self._tags = None
            self._predictor: Optional[HitMissPredictor] = None
        else:
            if self.tags_org == "dram":
                self._tags = AlloyTagStore(
                    cache_bytes, self._line_size, self.direct_bytes
                )
            else:
                self._tags = SramTagStore(
                    cache_bytes, self.assoc, self._line_size, self.direct_bytes
                )
            self._predictor = make_predictor(
                self._predictor_kind, self._tags.probe
            )
            if self._warm:
                self._tags.warm_start()
        # Synchronous decision paths: SRAM tags resolved in-cycle, and
        # the alloy organization decides (predicts) without any tag
        # lookup latency — its "tag access" is the stack TAD read.
        self._sync = self.tags_org == "dram" or self._tag_latency == 0

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
    def stack(self):
        return self._stack

    @property
    def offchip(self):
        return self._offchip

    def controller_for(self, addr: int):
        if addr < self.direct_bytes or self._tags is None:
            target = self._stack if addr < self.direct_bytes else self._offchip
            return target.controller_for(addr)
        return self._stack.controller_for(addr)

    def row_hit_rate(self) -> float:
        """Stack row-buffer hit rate (parity with memory mode)."""
        return self._stack.row_hit_rate()

    def offchip_row_hit_rate(self) -> float:
        return self._offchip.row_hit_rate()

    def occupancy(self) -> int:
        """Requests the facade itself holds (feeds the hang watchdog and
        the sampling drain; MC queue depths are counted separately)."""
        waiting = sum(len(f.waiters) for f in self._inflight.values())
        return self._mshr.occupancy + len(self._mshr_waitlist) + waiting

    def enqueue(self, request: MemoryRequest) -> bool:
        addr = request.addr
        if addr < self.direct_bytes:
            # Direct segment: identity-mapped onto the stack.  This is
            # the memory-mode-equivalent path — the original request,
            # unchanged, synchronously.  Counted only when accepted (a
            # refused enqueue comes back through the caller's retry).
            accepted = self._stack.enqueue(request)
            if accepted:
                self._c_direct.value += 1.0
            return accepted
        if self._tags is None:
            self._c_bypass.value += 1.0
            return self._offchip.enqueue(request)
        if self._sync:
            return self._cache_access(request, sync=True)
        self.engine.schedule(self._tag_latency, self._cache_access, request)
        return True

    def wait_for_space(self, addr: int, callback: Callable[[], None]) -> None:
        if addr < self.direct_bytes:
            self._stack.wait_for_space(addr, callback)
            return
        if self._tags is None:
            self._offchip.wait_for_space(addr, callback)
            return
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

        if self._epoch:
            self._note_reuse(request, line)

        fill = self._inflight.get(line)
        if fill is not None:
            fill.waiters.append(request)
            if request.access.is_write:
                fill.dirty = True
            self._c_merges.value += 1.0
            return True

        if self.tags_org == "dram":
            return self._alloy_access(request, line)

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

    def _alloy_access(self, request: MemoryRequest, line: int) -> bool:
        """Tags-in-DRAM: the predictor picks which path starts first."""
        tags = self._tags
        predicted_hit = self._predictor.predict(line, request.pc)
        resident = tags.probe(line)
        self._predictor.update(line, request.pc, resident)
        if predicted_hit:
            self._c_pred_hits.value += 1.0
        else:
            self._c_pred_misses.value += 1.0
        if resident:
            self._c_hits.value += 1.0
            if not predicted_hit:
                # Mispredicted miss on a resident line: the verified
                # path falls back to the stack read it tried to skip.
                self._c_false_misses.value += 1.0
            if request.access.is_write:
                tags.mark_dirty(line)
            frame = tags.lookup(line)
            return self._forward(request, self._stack, frame, True)
        self._c_misses.value += 1.0
        if predicted_hit:
            # Wasted TAD read: the miss is only discovered after a full
            # stack access, serializing the off-chip fetch behind it.
            self._c_false_hits.value += 1.0
            fill = _Fill(request)
            if request.access.is_write:
                fill.dirty = True
            self._inflight[line] = fill
            probe = MemoryRequest(
                tags.tad_addr(line),
                AccessType.READ,
                core_id=request.core_id,
                pc=request.pc,
                created_at=self.engine.now,
                callback=partial(self._wasted_read_done, line),
            )
            self._send(self._stack, probe)
            return True
        self._begin_fill(line, request)
        return True

    def _wasted_read_done(self, line: int, probe: MemoryRequest) -> None:
        self._try_issue_fetch(line)

    # -- miss machinery --------------------------------------------------
    def _begin_fill(self, line: int, request: MemoryRequest) -> None:
        fill = _Fill(request)
        if request.access.is_write:
            fill.dirty = True
        self._inflight[line] = fill
        self._try_issue_fetch(line)

    def _try_issue_fetch(self, line: int) -> None:
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
        fill = self._inflight[line]
        fill.issued = True
        first = fill.waiters[0] if fill.waiters else None
        self._c_offchip_reads.value += 1.0
        fetch = MemoryRequest(
            line,
            AccessType.READ,
            core_id=first.core_id if first is not None else 0,
            pc=first.pc if first is not None else 0,
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
        if self._pending_partition is not None and not self._inflight:
            self._do_repartition()

    def _drain_mshr_waitlist(self) -> None:
        while self._mshr_waitlist and self._mshr.occupancy < self._mshr.capacity_limit:
            line = self._mshr_waitlist.popleft()
            entry, _ = self._mshr.allocate(line)
            if entry is None:  # capacity_limit shrank under us
                self._mshr_waitlist.appendleft(line)
                return
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
        untouched (this is what makes the warm direct-mapped SRAM
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

    # -- MemCache reuse monitor -----------------------------------------
    def _note_reuse(self, request: MemoryRequest, line: int) -> None:
        if not request.access.is_demand:
            return
        self._epoch_accesses += 1
        if self._tags.probe(line):
            self._epoch_hits += 1
        if self._epoch_accesses < self._epoch:
            return
        rate = self._epoch_hits / self._epoch_accesses
        self._epoch_accesses = 0
        self._epoch_hits = 0
        fraction = self.cache_fraction
        if rate >= 0.6:
            fraction = min(self._fraction_max, fraction + self._step)
        elif rate <= 0.3:
            fraction = max(self._fraction_min, fraction - self._step)
        new_bytes = quantize_cache_bytes(
            self.capacity, fraction, self.tags_org, self.assoc, self._line_size
        )
        if new_bytes == self.cache_bytes:
            return
        self.cache_fraction = fraction
        self._pending_partition = new_bytes
        if not self._inflight:
            self._do_repartition()

    def _do_repartition(self) -> None:
        """Move the partition boundary: flush the cache region, rebuild.

        Deferred until no fill is in flight (frame translations must
        not change under an outstanding fetch).  Dirty lines stream
        back off-chip through the normal paced victim path; the direct
        segment's contents migrate off the critical path (the model
        charges no foreground cost — see docs/stack_modes.md)."""
        new_bytes = self._pending_partition
        self._pending_partition = None
        if self._tags is not None:
            for line, dirty, frame in list(self._tags.entries()):
                if dirty:
                    self._c_flushed.value += 1.0
                    self._evict_dirty(line, frame)
        self._c_repartitions.value += 1.0
        self._build_region(new_bytes)

    # -- functional-warmup path -----------------------------------------
    def functional_fetch(self, line: int, core_id: int = 0, pc: int = 0) -> None:
        """Warm L4 shadow state for one fetched line; no events/stats.

        Mirrors the detailed demand path: direct-segment touches go to
        the stack, cache hits touch the frame's stack bank, misses pull
        functionally from off-chip and fill the shadow tags (dirty
        victims flow back).  The predictor is deliberately *not*
        trained (functional volume must never move detailed-keyed
        state)."""
        line = line & self._line_mask
        if line < self.direct_bytes:
            self._stack.functional_fetch(line, core_id=core_id, pc=pc)
            return
        if self._tags is None:
            self._offchip.functional_fetch(line, core_id=core_id, pc=pc)
            return
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
        if line < self.direct_bytes:
            self._stack.functional_writeback(line)
            return
        if self._tags is None:
            self._offchip.functional_writeback(line)
            return
        frame = self._tags.lookup(line)
        if frame is not None:
            self._tags.mark_dirty(line)
            self._stack.functional_touch(frame, is_write=True)
            return
        self._offchip.functional_writeback(line)

    def functional_touch(self, addr: int, is_write: bool) -> None:
        """Open-row-state-only touch (MainMemory interface parity)."""
        line = addr & self._line_mask
        if line < self.direct_bytes:
            self._stack.functional_touch(addr, is_write)
            return
        if self._tags is not None:
            frame = self._tags.lookup(line)
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
        """``MachineResult.extra`` keys for non-memory modes."""
        pred_total = self._c_pred_hits.value + self._c_pred_misses.value
        mispredicts = self._c_false_hits.value + self._c_false_misses.value
        return {
            "l4_hit_rate": self.hit_rate(),
            "l4_offchip_reads": self._c_offchip_reads.value,
            "l4_mispredict_rate": (
                mispredicts / pred_total if pred_total else 0.0
            ),
            "l4_cache_fraction": self.cache_fraction,
            "l4_repartitions": self._c_repartitions.value,
        }
