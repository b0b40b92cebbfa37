"""Set-associative cache tag/state array (contents only, no timing).

Timing lives in the L1/L2 controller classes; this array tracks which
lines are resident, their dirty bits, and LRU victim selection (Table 1).
Lines are identified by their aligned physical address.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..common.units import is_power_of_two, log2int


class CacheArray:
    """Tag store: ``num_sets`` sets of ``assoc`` ways."""

    __slots__ = (
        "size_bytes", "assoc", "line_size", "num_sets", "_line_shift",
        "_align_mask", "_sets",
    )

    def __init__(
        self,
        size_bytes: int,
        assoc: int,
        line_size: int = 64,
    ) -> None:
        if size_bytes <= 0 or assoc <= 0:
            raise ValueError("size and associativity must be positive")
        if not is_power_of_two(line_size):
            raise ValueError("line size must be a power of two")
        if size_bytes % (assoc * line_size) != 0:
            raise ValueError(
                f"{size_bytes} B is not divisible into {assoc}-way sets of "
                f"{line_size} B lines"
            )
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_size = line_size
        self.num_sets = size_bytes // (assoc * line_size)
        self._line_shift = log2int(line_size)
        # Precomputed mask: align is a single AND.
        self._align_mask = ~(line_size - 1)
        # One plain dict per set, mapping line address -> dirty flag, kept
        # in LRU -> MRU insertion order: a hit or refill re-inserts the
        # line (``d[k] = d.pop(k)``), a fill appends, and the victim is
        # the first key (host memory per line: docs/performance.md).  A
        # set's dict is built by its first fill; ``None`` is an empty set.
        self._sets: List[Optional[Dict[int, bool]]] = [None] * self.num_sets

    def set_index(self, line_addr: int) -> int:
        # The methods below compute this inline: one frame per access.
        return (line_addr >> self._line_shift) % self.num_sets

    def align(self, addr: int) -> int:
        return addr & self._align_mask

    def lookup(self, addr: int) -> bool:
        """Hit test with replacement-state update (a real access)."""
        line = addr & self._align_mask
        cache_set = self._sets[(line >> self._line_shift) % self.num_sets]
        if cache_set is not None and line in cache_set:
            cache_set[line] = cache_set.pop(line)
            return True
        return False

    def touch(self, addr: int, dirty: bool = False) -> bool:
        """Fused demand access: hit test + LRU update + dirty merge.

        One call covering what ``lookup`` + ``mark_dirty`` do on the hit
        path — used by the functional-warmup fast path, where the per
        -access call overhead dominates.  Returns True on a hit.
        """
        line = addr & self._align_mask
        cache_set = self._sets[(line >> self._line_shift) % self.num_sets]
        if cache_set is not None and line in cache_set:
            cache_set[line] = cache_set.pop(line) or dirty
            return True
        return False

    def probe(self, addr: int) -> bool:
        """Hit test without disturbing replacement state (prefetch filters)."""
        line = addr & self._align_mask
        cache_set = self._sets[(line >> self._line_shift) % self.num_sets]
        return cache_set is not None and line in cache_set

    def fill(self, addr: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Insert a line; returns the evicted ``(line, dirty)`` if any."""
        line = addr & self._align_mask
        set_idx = (line >> self._line_shift) % self.num_sets
        cache_set = self._sets[set_idx]
        if cache_set is None:
            self._sets[set_idx] = {line: dirty}
            return None
        if line in cache_set:
            # Refill of a resident line (e.g. racing prefetch): just
            # merge the dirty bit and make the line MRU.
            cache_set[line] = cache_set.pop(line) or dirty
            return None
        victim: Optional[Tuple[int, bool]] = None
        if len(cache_set) >= self.assoc:
            lru = next(iter(cache_set))
            victim = (lru, cache_set.pop(lru))
        cache_set[line] = dirty
        return victim

    def mark_dirty(self, addr: int) -> None:
        """Set the dirty bit of a resident line (write hit)."""
        line = addr & self._align_mask
        cache_set = self._sets[(line >> self._line_shift) % self.num_sets]
        if cache_set is None or line not in cache_set:
            raise KeyError(f"line {line:#x} not resident")
        del cache_set[line]
        cache_set[line] = True

    def invalidate(self, addr: int) -> Optional[bool]:
        """Drop a line; returns its dirty bit, or None if absent."""
        line = addr & self._align_mask
        cache_set = self._sets[(line >> self._line_shift) % self.num_sets]
        return None if cache_set is None else cache_set.pop(line, None)

    @property
    def resident_lines(self) -> int:
        return sum(map(len, filter(None, self._sets)))

