"""Translation lookaside buffer (Table 1: 64-entry 4-way DTLB).

The core model translates virtual addresses through a per-core DTLB
before the L1 access; a miss costs a page-table walk, modelled as a
fixed penalty (the walk mostly hits the L2 in practice).  Table 1's
DTLB: 64-entry, 4-way set-associative.
"""

from __future__ import annotations

from typing import Optional

from ..common.stats import StatGroup
from ..common.units import is_power_of_two, log2int


class Tlb:
    """Set-associative TLB over virtual page numbers (LRU per set)."""

    __slots__ = (
        "entries", "assoc", "num_sets", "walk_penalty", "_page_shift", "_sets",
        "stats", "_c_hits", "_c_misses",
    )

    def __init__(
        self,
        entries: int = 64,
        assoc: int = 4,
        page_size: int = 4096,
        walk_penalty: int = 30,
        stats: Optional[StatGroup] = None,
        name: str = "dtlb",
    ) -> None:
        if entries <= 0 or assoc <= 0 or entries % assoc:
            raise ValueError("entries must divide evenly into assoc ways")
        if not is_power_of_two(page_size):
            raise ValueError("page size must be a power of two")
        if walk_penalty < 0:
            raise ValueError("walk penalty cannot be negative")
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self.walk_penalty = walk_penalty
        self._page_shift = log2int(page_size)
        # One dict per set, vpn -> True, in LRU -> MRU insertion order.
        self._sets = [{} for _ in range(self.num_sets)]
        self.stats = stats if stats is not None else StatGroup(name)
        # Bound counter slots: access() runs once per dispatched memory op.
        self._c_hits = self.stats.counter("hits")
        self._c_misses = self.stats.counter("misses")

    def access(self, vaddr: int) -> int:
        """Translate-latency for this access: 0 on a hit, walk penalty on
        a miss (the entry is filled)."""
        vpn = vaddr >> self._page_shift
        tlb_set = self._sets[vpn % self.num_sets]
        if vpn in tlb_set:
            tlb_set[vpn] = tlb_set.pop(vpn)
            self._c_hits.value += 1.0
            return 0
        self._c_misses.value += 1.0
        if len(tlb_set) >= self.assoc:
            del tlb_set[next(iter(tlb_set))]
        tlb_set[vpn] = True
        return self.walk_penalty

    def touch(self, vaddr: int) -> None:
        """Functional-warmup path: update LRU/fill state, no stats.

        Identical state transitions to :meth:`access`, but counts nothing
        and reports no latency — used by the sampled-simulation warmup so
        TLB contents track the instruction stream without perturbing the
        measured hit/miss statistics.
        """
        vpn = vaddr >> self._page_shift
        tlb_set = self._sets[vpn % self.num_sets]
        if vpn in tlb_set:
            tlb_set[vpn] = tlb_set.pop(vpn)
            return
        if len(tlb_set) >= self.assoc:
            del tlb_set[next(iter(tlb_set))]
        tlb_set[vpn] = True

    def contains(self, vaddr: int) -> bool:
        vpn = vaddr >> self._page_shift
        return vpn in self._sets[vpn % self.num_sets]

    def flush(self) -> None:
        """Drop every translation (context switch)."""
        for tlb_set in self._sets:
            tlb_set.clear()
        self.stats.add("flushes")

    def miss_rate(self) -> float:
        hits = self.stats.get("hits")
        misses = self.stats.get("misses")
        total = hits + misses
        return misses / total if total else 0.0

