"""The Vector Bloom Filter (VBF) data structure (Section 5.2, Figure 8).

The VBF is an N x N bit table attached to an N-entry direct-mapped MSHR.
Row ``h`` (the home index of an address, ``addr mod N``) records, as set
bits, the *displacements* at which entries whose home is ``h`` were
actually allocated: bit ``d`` set in row ``h`` means "some entry with
home ``h`` lives at slot ``(h + d) mod N``".

During a search the home slot is probed in parallel with reading row
``h``; the remaining set bits give, in increasing displacement order, the
only slots that could possibly hold the address.  A zero bit means the
address is *definitely not* at that displacement (the Bloom-filter
no-false-negative property); a set bit may be a false hit because the
slot can be occupied by an entry from a different home.
"""

from __future__ import annotations

from typing import Iterator, List


class VectorBloomFilter:
    """N rows of N-bit vectors, one row per MSHR entry.

    Rows are stored as Python ints used as bitmasks, so set/clear/scan are
    O(1)-ish single-int operations.
    """

    __slots__ = ("num_entries", "_rows")

    def __init__(self, num_entries: int) -> None:
        if num_entries < 1:
            raise ValueError("VBF needs at least one entry")
        self.num_entries = num_entries
        self._rows: List[int] = [0] * num_entries

    def set(self, row: int, displacement: int) -> None:
        """Record an allocation at ``displacement`` from home ``row``."""
        self._check(row, displacement)
        self._rows[row] |= 1 << displacement

    def clear(self, row: int, displacement: int) -> None:
        """Remove the record for a deallocated entry."""
        self._check(row, displacement)
        self._rows[row] &= ~(1 << displacement)

    def test(self, row: int, displacement: int) -> bool:
        """Is the bit at (row, displacement) set?"""
        self._check(row, displacement)
        return bool(self._rows[row] & (1 << displacement))

    def row_empty(self, row: int) -> bool:
        """True when no entry with home ``row`` exists => definite miss."""
        self._check(row, 0)
        return self._rows[row] == 0

    def candidate_displacements(self, row: int) -> Iterator[int]:
        """Set displacements of ``row`` in increasing order.

        These are the only slots a search needs to probe (the paper's
        example: after the bit at column 2 is cleared, the search jumps
        straight from the home probe to displacement 3).
        """
        self._check(row, 0)
        bits = self._rows[row]
        displacement = 0
        while bits:
            if bits & 1:
                yield displacement
            bits >>= 1
            displacement += 1

    def population(self, row: int) -> int:
        """Number of set bits in a row (diagnostics/tests)."""
        self._check(row, 0)
        return bin(self._rows[row]).count("1")

    @property
    def storage_bits(self) -> int:
        """Hardware cost: N*N bits (128 bytes for N=32, as the paper notes)."""
        return self.num_entries * self.num_entries

    def _check(self, row: int, displacement: int) -> None:
        if not 0 <= row < self.num_entries:
            raise IndexError(f"row {row} out of range [0, {self.num_entries})")
        if not 0 <= displacement < self.num_entries:
            raise IndexError(
                f"displacement {displacement} out of range [0, {self.num_entries})"
            )
