"""Direct-mapped MSHR file with linear probing (Section 5.2, strawman).

Addresses hash to a home slot (``line_number mod N``); a conflicting
allocation takes the next sequentially available slot.  Without any
acceleration, a search "simply proceeds to check the next sequential
entries until a hit is found, or all entries have been checked which
would indicate a miss" — so misses cost a full scan, which is what the
Vector Bloom Filter variant eliminates.

Free-slot selection during allocation is a priority-encoder operation on
an occupancy bitmap in hardware, so allocation is charged a single probe;
the interesting cost (and the paper's reported statistic) is search
probes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..common.units import log2int
from .base import MshrEntry, MshrFile


class DirectMappedMshr(MshrFile):
    """Open-addressing MSHR with plain linear probing."""

    __slots__ = ("_shift", "_slots")

    def __init__(self, capacity: int, line_size: int = 64) -> None:
        super().__init__(capacity)
        self._shift = log2int(line_size)
        self._slots: List[Optional[MshrEntry]] = [None] * capacity

    def home_index(self, line_addr: int) -> int:
        return (line_addr >> self._shift) % self.capacity

    def _probe_sequence(self, line_addr: int):
        home = self.home_index(line_addr)
        for d in range(self.capacity):
            yield d, (home + d) % self.capacity

    def contains(self, line_addr: int) -> bool:
        return any(
            entry is not None and entry.line_addr == line_addr
            for entry in self._slots
        )

    def search(self, line_addr: int) -> Tuple[Optional[MshrEntry], int]:
        probes = 0
        for _, slot in self._probe_sequence(line_addr):
            probes += 1
            entry = self._slots[slot]
            if entry is not None and entry.line_addr == line_addr:
                return entry, self._count(probes)
        return None, self._count(probes)

    def allocate(self, line_addr: int) -> Tuple[Optional[MshrEntry], int]:
        probes = self._count(1)
        if self.is_full:
            return None, probes
        for _, slot in self._probe_sequence(line_addr):
            candidate = self._slots[slot]
            if candidate is not None and candidate.line_addr == line_addr:
                raise ValueError(f"line {line_addr:#x} already has an MSHR entry")
            if candidate is None:
                entry = MshrEntry(line_addr)
                self._slots[slot] = entry
                self.occupancy += 1
                return entry, probes
        raise RuntimeError("occupancy accounting broken: no free slot found")

    def deallocate(self, line_addr: int) -> int:
        probes = 0
        for _, slot in self._probe_sequence(line_addr):
            probes += 1
            entry = self._slots[slot]
            if entry is not None and entry.line_addr == line_addr:
                self._slots[slot] = None
                self.occupancy -= 1
                return self._count(probes)
        raise KeyError(f"no MSHR entry for line {line_addr:#x}")

