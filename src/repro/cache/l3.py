"""Optional stacked L3 cache between the L2 and main memory.

The paper's conclusion calls stacking "more cache on a processor" the
low-hanging fruit that industry would pick first, and argues that
re-architected stacked *memory* beats it.  This module makes that
comparison runnable: a large SRAM/DRAM cache on the stack, presented to
the L2 through the same interface as :class:`~repro.memctrl.memsys.MainMemory`
(``enqueue`` / ``mapping``; ``enqueue`` never refuses, so the L2 never
waits for space), so the rest of the hierarchy is unchanged.

Model: a banked tag+data array with a fixed access latency.  In-flight
misses to the same line merge; there is no MSHR cap (the structure is
sized like a cache, not a miss file) — the L2's own MSHRs remain the
outstanding-miss limiter, as in the real design.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from ..common.request import AccessType, MemoryRequest
from ..common.stats import StatRegistry
from ..engine.simulator import Engine
from ..memctrl.memsys import MainMemory
from .array import CacheArray


class StackedL3:
    """A stacked last-level cache in front of main memory."""

    __slots__ = (
        "engine", "array", "memory", "latency", "stats", "_c_accesses",
        "_c_hits", "_c_misses", "_c_merges", "_c_writeback_hits",
        "_c_writeback_misses", "_inflight",
    )

    def __init__(
        self,
        engine: Engine,
        array: CacheArray,
        memory: MainMemory,
        latency: int = 25,
        registry: Optional[StatRegistry] = None,
        name: str = "l3",
    ) -> None:
        if latency < 1:
            raise ValueError("L3 latency must be >= 1")
        self.engine = engine
        self.array = array
        self.memory = memory
        self.latency = latency
        registry = registry if registry is not None else StatRegistry()
        self.stats = registry.group(name)
        # Bound counter slots for the per-access tag-check path.
        self._c_accesses = self.stats.counter("accesses")
        self._c_hits = self.stats.counter("hits")
        self._c_misses = self.stats.counter("misses")
        self._c_merges = self.stats.counter("merges")
        self._c_writeback_hits = self.stats.counter("writeback_hits")
        self._c_writeback_misses = self.stats.counter("writeback_misses")
        # line -> requests waiting on an in-flight fill from memory.
        self._inflight: Dict[int, List[MemoryRequest]] = {}

    # -- MainMemory-compatible interface --------------------------------
    @property
    def mapping(self):
        return self.memory.mapping

    @property
    def num_mcs(self) -> int:
        return self.memory.num_mcs

    def enqueue(self, request: MemoryRequest) -> bool:
        """Accept a request from the L2 (never exerts backpressure)."""
        self.engine.schedule(self.latency, self._tag_check, request)
        return True

    # -- internals -------------------------------------------------------
    def _tag_check(self, request: MemoryRequest) -> None:
        now = self.engine.now
        line = self.array.align(request.addr)
        self._c_accesses.value += 1.0

        if request.access is AccessType.WRITEBACK:
            if self.array.lookup(line):
                self.array.mark_dirty(line)
                self._c_writeback_hits.value += 1.0
            else:
                self._c_writeback_misses.value += 1.0
                self._forward_writeback(line)
            request.complete(now)
            return

        if self.array.lookup(line):
            self._c_hits.value += 1.0
            request.complete(now)
            return

        self._c_misses.value += 1.0
        waiting = self._inflight.get(line)
        if waiting is not None:
            waiting.append(request)
            self._c_merges.value += 1.0
            return
        self._inflight[line] = [request]
        fetch = MemoryRequest(
            line,
            AccessType.READ,
            core_id=request.core_id,
            pc=request.pc,
            created_at=now,
            callback=partial(self._fill_from_memory, line),
        )
        self._send(fetch)

    def _send(self, fetch: MemoryRequest) -> None:
        if not self.memory.enqueue(fetch):
            self.stats.add("mrq_full_retries")
            self.memory.wait_for_space(fetch.addr, partial(self._send, fetch))

    def _fill_from_memory(self, line: int, fetch: MemoryRequest) -> None:
        now = self.engine.now
        victim = self.array.fill(line, dirty=False)
        if victim is not None and victim[1]:
            self.stats.add("dirty_evictions")
            self._forward_writeback(victim[0])
        for request in self._inflight.pop(line):
            request.complete(now)

    def _forward_writeback(self, line: int) -> None:
        writeback = MemoryRequest(
            line, AccessType.WRITEBACK, created_at=self.engine.now
        )
        self._send(writeback)

    # -- functional-warmup path -----------------------------------------
    def functional_fetch(self, line: int) -> None:
        """Warm the L3 array for one fetched line; no timing, no stats."""
        line = self.array.align(line)
        if self.array.lookup(line):
            return
        self.memory.functional_fetch(line)
        victim = self.array.fill(line, dirty=False)
        if victim is not None and victim[1]:
            self.memory.functional_writeback(victim[0])

    def functional_writeback(self, line: int) -> None:
        """Absorb a functional writeback (dirty mark or forward)."""
        line = self.array.align(line)
        if self.array.lookup(line):
            self.array.mark_dirty(line)
        else:
            self.memory.functional_writeback(line)

    def hit_rate(self) -> float:
        hits = self.stats.get("hits")
        misses = self.stats.get("misses")
        total = hits + misses
        return hits / total if total else 0.0
