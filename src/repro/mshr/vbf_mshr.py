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
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..common.units import log2int
from .base import MshrEntry, MshrFile
from .vector_bloom_filter import VectorBloomFilter


class VbfMshr(MshrFile):
    """Direct-mapped MSHR + VBF search filter."""

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
        if entry is not None and entry.line_addr == line_addr:
            return entry, self._count(probes)
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
                return candidate, self._count(probes)
        return None, self._count(probes)

    def allocate(self, line_addr: int) -> Tuple[Optional[MshrEntry], int]:
        probes = self._count(1)
        if self.is_full:
            return None, probes
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
        self.vbf.set(home, d_free)
        self._occupied_bits = occupied | (1 << slot)
        self.occupancy += 1
        return entry, probes

    def deallocate(self, line_addr: int) -> int:
        cap = self.capacity
        home = (line_addr >> self._shift) % cap
        slots = self._slots
        probes = 1
        entry = slots[home]
        if entry is not None and entry.line_addr == line_addr:
            slots[home] = None
            self.vbf.clear(home, 0)
            self._occupied_bits &= ~(1 << home)
            self.occupancy -= 1
            return self._count(probes)
        bits = self.vbf._rows[home] & ~1
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
                self.vbf.clear(home, displacement)
                self._occupied_bits &= ~(1 << slot)
                self.occupancy -= 1
                return self._count(probes)
        raise KeyError(f"no MSHR entry for line {line_addr:#x}")

    def capture_state(self, ctx) -> dict:
        state = self._capture_base()
        state["v"] = 1
        state["slots"] = [
            None if e is None else ctx.ref_entry(e) for e in self._slots
        ]
        state["vbf_rows"] = list(self.vbf._rows)
        state["occupied_bits"] = self._occupied_bits
        return state

    def restore_state(self, state: dict, ctx) -> None:
        from ..common.versioning import check_state_version

        check_state_version(state, 1, "VbfMshr")
        self._restore_base(state)
        slots = state["slots"]
        rows = state["vbf_rows"]
        if len(slots) != self.capacity or len(rows) != self.capacity:
            raise ValueError(
                f"snapshot shape ({len(slots)} slots, {len(rows)} VBF rows) "
                f"does not match capacity {self.capacity}"
            )
        self._slots = [
            None if ref is None else ctx.get_entry(ref) for ref in slots
        ]
        self.vbf._rows = list(rows)
        self._occupied_bits = state["occupied_bits"]
