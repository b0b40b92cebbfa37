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

#: Interleaving schemes accepted in configs (``dram_mapping_scheme``).
MAPPING_SCHEMES = ("page", "xor")


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

    def __init__(
        self,
        num_mcs: int = 1,
        ranks_per_mc: int = 8,
        banks_per_rank: int = 8,
        page_size: int = 4096,
        line_size: int = 64,
        scheme: str = "page",
    ) -> None:
        """``scheme``:

        * ``"page"`` — plain modulo interleaving (the default above).
        * ``"xor"``  — permutation-based interleaving: the bank index is
          XORed with the low row bits, so strided patterns whose period
          aliases with the bank count still spread across banks
          (requires power-of-two banks).
        """
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
        if scheme not in MAPPING_SCHEMES:
            raise ValueError(f"unknown interleaving scheme {scheme!r}")
        if scheme == "xor" and not is_power_of_two(banks_per_rank):
            raise ValueError("xor interleaving needs power-of-two banks")
        self.scheme = scheme
        self.num_mcs = num_mcs
        self.ranks_per_mc = ranks_per_mc
        self.banks_per_rank = banks_per_rank
        self.page_size = page_size
        self.line_size = line_size
        self._page_shift = log2int(page_size)
        self._line_shift = log2int(line_size)
        self._column_mask = (page_size - 1) >> self._line_shift
        # Shift-and-mask decomposition, precomputed when every divisor is
        # a power of two (the common configurations).  The page number is
        # consumed low-bits-first in mc -> bank -> rank -> row order, so
        # the shifts accumulate left to right.
        if (
            is_power_of_two(num_mcs)
            and is_power_of_two(banks_per_rank)
            and is_power_of_two(ranks_per_mc)
        ):
            mc_bits = log2int(num_mcs)
            bank_bits = log2int(banks_per_rank)
            rank_bits = log2int(ranks_per_mc)
            self._mc_mask = num_mcs - 1
            self._bank_shift = mc_bits
            self._bank_mask = banks_per_rank - 1
            self._rank_shift = mc_bits + bank_bits
            self._rank_mask = ranks_per_mc - 1
            self._row_shift = mc_bits + bank_bits + rank_bits
            self._pow2 = True
        else:
            self._pow2 = False

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
        """Full coordinates of ``addr``."""
        page = addr >> self._page_shift
        if self._pow2:
            column = (addr >> self._line_shift) & self._column_mask
            mc = page & self._mc_mask
            bank = (page >> self._bank_shift) & self._bank_mask
            rank = (page >> self._rank_shift) & self._rank_mask
            row = page >> self._row_shift
            if self.scheme == "xor":
                bank ^= row & self._bank_mask
            return DramCoordinates(mc, rank, bank, row, column)
        column = (addr & (self.page_size - 1)) >> self._line_shift
        mc = page % self.num_mcs
        page //= self.num_mcs
        bank = page % self.banks_per_rank
        page //= self.banks_per_rank
        rank = page % self.ranks_per_mc
        row = page // self.ranks_per_mc
        if self.scheme == "xor":
            bank ^= row % self.banks_per_rank
        return DramCoordinates(mc=mc, rank=rank, bank=bank, row=row, column=column)

    def compose(self, coords: DramCoordinates, column_offset: int = 0) -> int:
        """Inverse of :meth:`decompose` (used by tests for bijectivity)."""
        bank = coords.bank
        if self.scheme == "xor":
            bank ^= coords.row % self.banks_per_rank
        page = coords.row
        page = page * self.ranks_per_mc + coords.rank
        page = page * self.banks_per_rank + bank
        page = page * self.num_mcs + coords.mc
        addr = page << self._page_shift
        addr |= (coords.column << self._line_shift) | column_offset
        return addr
