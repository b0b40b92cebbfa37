"""Physical address -> (MC, rank, bank, row) interleaving.

The paper interleaves main memory at physical-page granularity (4 KiB,
which is also the DRAM row size, Section 2.4/4.1).  Consecutive pages are
spread first across memory controllers, then across banks, then across
the ranks owned by each controller, maximizing bank- and
channel-level parallelism for streaming access patterns:

    page = addr >> 12
    mc   = page                              mod num_mcs
    bank = page // num_mcs                   mod banks_per_rank
    rank = page // (num_mcs * banks)         mod ranks_per_mc   (local)
    row  = page // (num_mcs * banks * ranks)

Every rank in the machine is owned by exactly one MC (Figure 5's bold
routing lines): rank *global* id = mc * ranks_per_mc + local rank.
"""

from __future__ import annotations

from typing import NamedTuple

from ..common.units import is_power_of_two, log2int


class DramCoordinates(NamedTuple):
    """Where one physical address lives in the DRAM array.

    A NamedTuple rather than a dataclass: one is built per memory request
    on the controller enqueue path, and tuple construction plus C-level
    field access keeps that path cheap.
    """

    mc: int
    rank: int  # local to the owning MC
    bank: int
    row: int
    column: int


class AddressMapping:
    """Page-interleaved address decomposition."""

    __slots__ = (
        "num_mcs", "ranks_per_mc", "banks_per_rank", "page_size", "line_size",
        "_page_shift", "_line_shift", "_column_mask",
    )

    def __init__(
        self,
        num_mcs: int = 1,
        ranks_per_mc: int = 8,
        banks_per_rank: int = 8,
        page_size: int = 4096,
        line_size: int = 64,
    ) -> None:
        for name, value in (
            ("num_mcs", num_mcs),
            ("ranks_per_mc", ranks_per_mc),
            ("banks_per_rank", banks_per_rank),
        ):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not is_power_of_two(page_size):
            raise ValueError("page size must be a power of two")
        if not is_power_of_two(line_size) or line_size > page_size:
            raise ValueError("line size must be a power of two <= page size")
        self.num_mcs = num_mcs
        self.ranks_per_mc = ranks_per_mc
        self.banks_per_rank = banks_per_rank
        self.page_size = page_size
        self.line_size = line_size
        self._page_shift = log2int(page_size)
        self._line_shift = log2int(line_size)
        self._column_mask = (page_size - 1) >> self._line_shift

    @property
    def total_ranks(self) -> int:
        return self.num_mcs * self.ranks_per_mc

    @property
    def total_banks(self) -> int:
        return self.total_ranks * self.banks_per_rank

    def mc_index(self, addr: int) -> int:
        """Which memory controller owns this address."""
        return (addr >> self._page_shift) % self.num_mcs

    def decompose(self, addr: int) -> DramCoordinates:
        """Full coordinates of ``addr`` (the module docstring's formula)."""
        page = addr >> self._page_shift
        column = (addr >> self._line_shift) & self._column_mask
        mc = page % self.num_mcs
        page //= self.num_mcs
        bank = page % self.banks_per_rank
        page //= self.banks_per_rank
        return DramCoordinates(
            mc, page % self.ranks_per_mc, bank, page // self.ranks_per_mc, column
        )

    def compose(self, coords: DramCoordinates, column_offset: int = 0) -> int:
        """Inverse of :meth:`decompose` (used by tests for bijectivity)."""
        page = coords.row
        page = page * self.ranks_per_mc + coords.rank
        page = page * self.banks_per_rank + coords.bank
        page = page * self.num_mcs + coords.mc
        addr = page << self._page_shift
        addr |= (coords.column << self._line_shift) | column_offset
        return addr
