"""Physical-address helpers and the virtual->physical allocator.

The paper performs "virtual-to-physical memory translation/allocation on a
first-come-first-serve basis" (Section 2.4); :class:`PageAllocator`
implements exactly that: the first page touched gets physical page 0, the
next new page gets page 1, and so on, shared across all cores so
co-scheduled programs interleave in physical memory the way they would on
a real first-touch allocator.
"""

from __future__ import annotations

from typing import Dict

from .units import is_power_of_two, log2int


def line_address(addr: int, line_size: int) -> int:
    """The cache-line-aligned address containing ``addr``."""
    return addr & ~(line_size - 1)


def line_index(addr: int, line_size: int) -> int:
    """The cache-line number containing ``addr``."""
    return addr >> log2int(line_size)


class PageAllocator:
    """First-come-first-serve virtual-to-physical page allocation.

    Addresses produced by workload generators are virtual; the allocator
    lazily assigns physical frames in touch order.  Each core's virtual
    space is disjoint (the generators namespace them), so a single shared
    allocator reproduces multiprogrammed first-touch interleaving.
    """

    __slots__ = (
        "page_size", "_page_shift", "_offset_mask", "_capacity_pages",
        "_page_table", "_next_frame",
    )

    def __init__(self, page_size: int = 4096, capacity_bytes: int = 0) -> None:
        if not is_power_of_two(page_size):
            raise ValueError(f"page size must be a power of two, got {page_size}")
        self.page_size = page_size
        self._page_shift = log2int(page_size)
        self._offset_mask = page_size - 1
        self._capacity_pages = capacity_bytes >> self._page_shift if capacity_bytes else 0
        self._page_table: Dict[int, int] = {}
        self._next_frame = 0

    @property
    def allocated_pages(self) -> int:
        return self._next_frame

    @property
    def allocated_bytes(self) -> int:
        return self._next_frame << self._page_shift

    def translate(self, vaddr: int) -> int:
        """Translate a virtual address, allocating a frame on first touch."""
        vpn = vaddr >> self._page_shift
        frame = self._page_table.get(vpn)
        if frame is None:
            if self._capacity_pages and self._next_frame >= self._capacity_pages:
                # Wrap around instead of failing: models the effect of
                # paging pressure without simulating a disk, and keeps
                # long traces runnable at small simulated capacities.
                frame = self._next_frame % self._capacity_pages
            else:
                frame = self._next_frame
            self._page_table[vpn] = frame
            self._next_frame += 1
        return (frame << self._page_shift) | (vaddr & self._offset_mask)

