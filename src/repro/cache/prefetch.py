"""The prefetcher from Table 1: next-line plus IP-based stride.

One :class:`Prefetcher` serves a cache (each L1, and the shared L2).  It
observes demand accesses (address + PC + hit/miss) and suggests
line-aligned candidate addresses, each line at most once; the owning
cache filters them against its own contents/MSHRs and injects PREFETCH
requests.

``observe`` runs once per demand access, and almost every call suggests
nothing, so "no candidates" is the shared empty tuple :data:`NO_CANDIDATES`
(test the result for truth; do not compare it with ``[]``).
"""

from __future__ import annotations

from typing import Dict, Sequence

#: What ``observe`` returns when it suggests nothing (allocation-free).
NO_CANDIDATES: Sequence[int] = ()

#: Table 1's IP-stride parameters: PC-indexed table entries, confirmations
#: of one stride before it fires, and strides fetched ahead once it does.
STRIDE_TABLE_SIZE = 256
STRIDE_THRESHOLD = 2
STRIDE_DEGREE = 2


class _StrideEntry:
    __slots__ = ("last_addr", "stride", "confidence")

    def __init__(self, last_addr: int) -> None:
        self.last_addr = last_addr
        self.stride = 0
        self.confidence = 0


class Prefetcher:
    """Table 1's prefetcher: next-line on misses, IP-stride on every access.

    The stride detector is Intel's "IP-based stride" (ref [9]): a table
    indexed by PC tracks the last address and detected stride;
    after :data:`STRIDE_THRESHOLD` consecutive confirmations it
    prefetches :data:`STRIDE_DEGREE` strides ahead.  A miss suggests the
    next line first, then the stride targets; a hit, the stride targets
    only.  A stride under the line size can name one line twice: it is
    suggested once.
    """

    __slots__ = ("line_size", "_table")

    def __init__(self, line_size: int = 64) -> None:
        self.line_size = line_size
        self._table: Dict[int, _StrideEntry] = {}

    def observe(self, addr: int, pc: int, was_miss: bool) -> Sequence[int]:
        # Every L1 hit lands here, so the stride update stays inline.
        line_size = self.line_size
        mask = ~(line_size - 1)
        candidates = [(addr & mask) + line_size] if was_miss else NO_CANDIDATES
        slot = pc % STRIDE_TABLE_SIZE
        entry = self._table.get(slot)
        if entry is None:
            self._table[slot] = _StrideEntry(addr)
            return candidates
        stride = addr - entry.last_addr
        entry.last_addr = addr
        if stride == 0 or stride != entry.stride:
            entry.stride = stride
            entry.confidence = 0
            return candidates
        if entry.confidence + 1 < STRIDE_THRESHOLD:
            entry.confidence += 1
            return candidates
        entry.confidence = STRIDE_THRESHOLD
        if not candidates:
            candidates = []
        for i in range(1, STRIDE_DEGREE + 1):
            target = addr + stride * i
            # A handful of lines at most: a list scan de-duplicates
            # without building a set.
            if target >= 0:
                line = target & mask
                if line not in candidates:
                    candidates.append(line)
        return candidates
