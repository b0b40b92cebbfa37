"""Set-associative cache tag/state array (contents only, no timing).

Timing lives in the L1/L2 controller classes; this array tracks which
lines are resident, their dirty bits, and victim selection through a
pluggable replacement policy (LRU by default, per Table 1).
Lines are identified by their aligned physical address.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from ..common.units import is_power_of_two, log2int
from .replacement import make_policy


class CacheArray:
    """Tag store: ``num_sets`` sets of ``assoc`` ways."""

    def __init__(
        self,
        size_bytes: int,
        assoc: int,
        line_size: int = 64,
        policy: str = "lru",
        seed: int = 0,
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
        self.policy = make_policy(policy, seed)
        self._line_shift = log2int(line_size)
        # Precomputed masks: align is a single AND, and power-of-two set
        # counts (the common case) index with shift-and-mask.
        self._align_mask = ~(line_size - 1)
        self._set_mask = (
            self.num_sets - 1 if is_power_of_two(self.num_sets) else None
        )
        # Bound policy hooks: one attribute load instead of two per access.
        self._on_access = self.policy.on_access
        self._on_fill = self.policy.on_fill
        self._on_evict = self.policy.on_evict
        self._choose_victim = self.policy.choose_victim
        # One OrderedDict per set, mapping line address -> dirty flag.
        # The dict's order is owned by the policy (LRU keeps it LRU->MRU).
        self._sets = [OrderedDict() for _ in range(self.num_sets)]

    def set_index(self, line_addr: int) -> int:
        if self._set_mask is not None:
            return (line_addr >> self._line_shift) & self._set_mask
        return (line_addr >> self._line_shift) % self.num_sets

    def align(self, addr: int) -> int:
        return addr & self._align_mask

    def lookup(self, addr: int) -> bool:
        """Hit test with replacement-state update (a real access)."""
        line = addr & self._align_mask
        index = self.set_index(line)
        cache_set = self._sets[index]
        if line in cache_set:
            self._on_access(cache_set, index, line)
            return True
        return False

    def touch(self, addr: int, dirty: bool = False) -> bool:
        """Fused demand access: hit test + LRU update + dirty merge.

        One call covering what ``lookup`` + ``mark_dirty`` do on the hit
        path — used by the functional-warmup fast path, where the per
        -access call overhead dominates.  Returns True on a hit.
        """
        line = addr & self._align_mask
        index = self.set_index(line)
        cache_set = self._sets[index]
        if line in cache_set:
            if dirty:
                cache_set[line] = True
            self._on_access(cache_set, index, line)
            return True
        return False

    def probe(self, addr: int) -> bool:
        """Hit test without disturbing replacement state (prefetch filters)."""
        line = addr & self._align_mask
        return line in self._sets[self.set_index(line)]

    def fill(self, addr: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Insert a line; returns the evicted ``(line, dirty)`` if any."""
        line = addr & self._align_mask
        set_idx = self.set_index(line)
        cache_set = self._sets[set_idx]
        if line in cache_set:
            # Refill of a resident line (e.g. racing prefetch): just
            # merge the dirty bit and touch replacement state.
            cache_set[line] = cache_set[line] or dirty
            self._on_access(cache_set, set_idx, line)
            return None
        victim: Optional[Tuple[int, bool]] = None
        if len(cache_set) >= self.assoc:
            victim_line = self._choose_victim(cache_set, set_idx)
            victim = (victim_line, cache_set.pop(victim_line))
            self._on_evict(cache_set, set_idx, victim_line)
        cache_set[line] = dirty
        self._on_fill(cache_set, set_idx, line)
        return victim

    def mark_dirty(self, addr: int) -> None:
        """Set the dirty bit of a resident line (write hit)."""
        line = addr & self._align_mask
        set_idx = self.set_index(line)
        cache_set = self._sets[set_idx]
        if line not in cache_set:
            raise KeyError(f"line {line:#x} not resident")
        cache_set[line] = True
        self._on_access(cache_set, set_idx, line)

    def invalidate(self, addr: int) -> Optional[bool]:
        """Drop a line; returns its dirty bit, or None if absent."""
        line = addr & self._align_mask
        set_idx = self.set_index(line)
        cache_set = self._sets[set_idx]
        if line not in cache_set:
            return None
        dirty = cache_set.pop(line)
        self._on_evict(cache_set, set_idx, line)
        return dirty

    def lines(self):
        """Iterate ``(line, dirty)`` over every resident line (LRU->MRU
        within each set) — used for flush/scrub sweeps."""
        for cache_set in self._sets:
            yield from cache_set.items()

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

