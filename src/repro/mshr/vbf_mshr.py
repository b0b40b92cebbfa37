"""Direct-mapped MSHR accelerated by a Vector Bloom Filter (Section 5.2).

Search semantics follow Figure 8 exactly:

* The home slot and the VBF row are accessed *in parallel*, so the first
  probe is mandatory and costs one cycle.
* If the home slot does not match, the VBF row's remaining set bits give
  the only displacements worth probing, in increasing order.  A clear row
  (or no remaining set bits) is a definite miss with no further probing.
* A set bit can be a *false hit* — the slot may hold an entry from a
  different home — in which case probing continues with the next set bit.

Deallocation clears the entry's (home, displacement) bit so subsequent
searches skip it (Figure 8(e)/(f): after address 29's bit at column 2 is
cleared, a search for 45 jumps from the home probe straight to
displacement 3 — two probes instead of linear probing's four).

Implementation note: the probe loops walk the VBF row as a single int
with low-bit extraction (``bits & -bits`` / ``bit_length``) instead of a
per-bit generator — identical probe order and counts, a fraction of the
interpreter work.  ``allocate`` keeps a slot-occupancy bitmask so the
first free displacement is one rotate-and-scan rather than a slot walk.
Probe accounting and the VBF row updates are inline as well, so each
operation is one frame.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..common.units import log2int
from .base import MshrEntry, MshrFile
from .vector_bloom_filter import VectorBloomFilter


class VbfMshr(MshrFile):
    """Direct-mapped MSHR + VBF search filter."""

    __slots__ = ("_shift", "_slots", "vbf", "_occupied_bits", "_full_mask")

    def __init__(self, capacity: int, line_size: int = 64) -> None:
        super().__init__(capacity)
        self._shift = log2int(line_size)
        self._slots: List[Optional[MshrEntry]] = [None] * capacity
        self.vbf = VectorBloomFilter(capacity)
        # Occupied-slot bitmask, maintained by allocate/deallocate; bit s
        # set <=> ``self._slots[s] is not None``.
        self._occupied_bits = 0
        self._full_mask = (1 << capacity) - 1

    def home_index(self, line_addr: int) -> int:
        return (line_addr >> self._shift) % self.capacity

    def contains(self, line_addr: int) -> bool:
        cap = self.capacity
        home = (line_addr >> self._shift) % cap
        slots = self._slots
        bits = self.vbf._rows[home]
        while bits:
            low = bits & -bits
            bits ^= low
            slot = home + low.bit_length() - 1
            if slot >= cap:
                slot -= cap
            candidate = slots[slot]
            if candidate is not None and candidate.line_addr == line_addr:
                return True
        return False

    def search(self, line_addr: int) -> Tuple[Optional[MshrEntry], int]:
        cap = self.capacity
        home = (line_addr >> self._shift) % cap
        slots = self._slots
        # Mandatory first probe, overlapped with the VBF row read.
        probes = 1
        entry = slots[home]
        self.total_accesses += 1
        if entry is not None and entry.line_addr == line_addr:
            self.total_probes += 1
            return entry, 1
        # Remaining set bits in increasing displacement order; bit 0 is
        # the home slot, already probed.
        bits = self.vbf._rows[home] & ~1
        while bits:
            low = bits & -bits
            bits ^= low
            probes += 1
            slot = home + low.bit_length() - 1
            if slot >= cap:
                slot -= cap
            candidate = slots[slot]
            if candidate is not None and candidate.line_addr == line_addr:
                self.total_probes += probes
                return candidate, probes
        self.total_probes += probes
        return None, probes

    def allocate(self, line_addr: int) -> Tuple[Optional[MshrEntry], int]:
        self.total_probes += 1
        self.total_accesses += 1
        if self.occupancy >= self.capacity_limit:
            return None, 1
        cap = self.capacity
        home = (line_addr >> self._shift) % cap
        occupied = self._occupied_bits
        full = self._full_mask
        # Rotate the free mask so home sits at bit 0; the lowest set bit
        # is then the smallest free displacement.  ``is_full`` was false
        # and ``capacity_limit <= capacity``, so a free slot exists.
        free = ~occupied & full
        rotated = ((free >> home) | (free << (cap - home))) & full
        d_free = (rotated & -rotated).bit_length() - 1
        # The slot walk the bitmask replaced would have compared every
        # same-home entry it passed; those live exactly at the VBF row's
        # set displacements below d_free (a matching entry beyond the
        # first free slot was unreachable before, too).
        dup = self.vbf._rows[home] & ((1 << d_free) - 1)
        slots = self._slots
        while dup:
            low = dup & -dup
            dup ^= low
            slot = home + low.bit_length() - 1
            if slot >= cap:
                slot -= cap
            candidate = slots[slot]
            if candidate is not None and candidate.line_addr == line_addr:
                raise ValueError(f"line {line_addr:#x} already has an MSHR entry")
        slot = home + d_free
        if slot >= cap:
            slot -= cap
        entry = MshrEntry(line_addr)
        slots[slot] = entry
        self.vbf._rows[home] |= 1 << d_free  # VectorBloomFilter.set
        self._occupied_bits = occupied | (1 << slot)
        self.occupancy += 1
        return entry, 1

    def deallocate(self, line_addr: int) -> int:
        cap = self.capacity
        home = (line_addr >> self._shift) % cap
        slots = self._slots
        rows = self.vbf._rows  # cleared inline (VectorBloomFilter.clear)
        probes = 1
        entry = slots[home]
        if entry is not None and entry.line_addr == line_addr:
            slots[home] = None
            rows[home] &= ~1
            self._occupied_bits &= ~(1 << home)
            self.occupancy -= 1
            self.total_probes += 1
            self.total_accesses += 1
            return 1
        bits = rows[home] & ~1
        while bits:
            low = bits & -bits
            bits ^= low
            probes += 1
            displacement = low.bit_length() - 1
            slot = home + displacement
            if slot >= cap:
                slot -= cap
            candidate = slots[slot]
            if candidate is not None and candidate.line_addr == line_addr:
                slots[slot] = None
                rows[home] &= ~low
                self._occupied_bits &= ~(1 << slot)
                self.occupancy -= 1
                self.total_probes += probes
                self.total_accesses += 1
                return probes
        raise KeyError(f"no MSHR entry for line {line_addr:#x}")

