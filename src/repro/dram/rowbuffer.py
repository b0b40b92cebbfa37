"""Multi-entry row-buffer cache ("cached DRAM", Section 4.2).

A conventional bank has exactly one row buffer; the paper also evaluates
2-4 entries per bank managed LRU, where "any access to a memory bank
performs an associative search on the set of row buffers, and a hit avoids
accessing the main memory array."
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


class RowBufferCache:
    """LRU cache of open rows for a single DRAM bank.

    Entries map row-id -> dirty flag in a plain dict whose insertion
    order is LRU -> MRU: a hit re-inserts the row, the victim is the
    first key.  This structure only tracks *contents*; all timing lives in
    :class:`repro.dram.bank.Bank`.
    """

    __slots__ = ("num_entries", "_entries")

    def __init__(self, num_entries: int = 1) -> None:
        if num_entries < 1:
            raise ValueError("a bank needs at least one row buffer entry")
        self.num_entries = num_entries
        self._entries: Dict[int, bool] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, row: int) -> bool:
        return row in self._entries

    @property
    def open_rows(self) -> Tuple[int, ...]:
        """Rows currently held, LRU first."""
        return tuple(self._entries.keys())

    def lookup(self, row: int) -> bool:
        """True (and a MRU promotion) when ``row`` is buffered."""
        entries = self._entries
        if row in entries:
            entries[row] = entries.pop(row)
            return True
        return False

    def touch_dirty(self, row: int) -> None:
        """Mark a buffered row dirty (a write hit)."""
        if row not in self._entries:
            raise KeyError(f"row {row} is not buffered")
        del self._entries[row]
        self._entries[row] = True

    def insert(self, row: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Buffer ``row``; returns the evicted ``(row, dirty)`` if any."""
        if row in self._entries:
            raise ValueError(f"row {row} is already buffered")
        evicted: Optional[Tuple[int, bool]] = None
        if len(self._entries) >= self.num_entries:
            lru = next(iter(self._entries))
            evicted = (lru, self._entries.pop(lru))
        self._entries[row] = dirty
        return evicted

    def evict_all(self) -> Tuple[Tuple[int, bool], ...]:
        """Drop every entry (e.g. around refresh); returns what was held."""
        held = tuple(self._entries.items())
        self._entries.clear()
        return held

