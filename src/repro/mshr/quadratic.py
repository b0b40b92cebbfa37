"""Direct-mapped MSHR with quadratic probing (paper footnote 2).

"We also experimented with other secondary hashing schemes, such as
quadratic probing, to deal with potential problems of miss clustering.
The VBF, however, does a sufficiently good job at reducing probings that
there was no measurable difference between the different secondary
hashing techniques that we studied."

This variant exists to reproduce that comparison: it spreads conflicting
allocations with the triangular-number probe sequence
``home + k*(k+1)/2 (mod N)``, which visits every slot exactly once when
N is a power of two.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..common.units import is_power_of_two, log2int
from .base import MshrEntry, MshrFile


class QuadraticMshr(MshrFile):
    """Open-addressing MSHR with quadratic (triangular) probing."""

    def __init__(self, capacity: int, line_size: int = 64) -> None:
        if not is_power_of_two(capacity):
            raise ValueError(
                "quadratic probing needs a power-of-two capacity for full "
                f"coverage; got {capacity}"
            )
        super().__init__(capacity)
        self._shift = log2int(line_size)
        self._slots: List[Optional[MshrEntry]] = [None] * capacity

    def home_index(self, line_addr: int) -> int:
        return (line_addr >> self._shift) % self.capacity

    def _probe_sequence(self, line_addr: int):
        home = self.home_index(line_addr)
        for k in range(self.capacity):
            yield k, (home + (k * (k + 1)) // 2) % self.capacity

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

