"""MSHR file interface and shared entry type.

An MSHR (miss status handling register) tracks one outstanding cache-line
miss: the primary request that triggered it plus any secondary requests
to the same line that arrived while it was in flight (which merge instead
of generating duplicate memory traffic).

Every implementation reports how many *probes* an operation needed; the
cache converts probes to access latency (one probe per cycle, the first
of which is mandatory and overlapped with the VBF read where applicable).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..common.request import MemoryRequest


class MshrEntry:
    """Bookkeeping for one outstanding line miss.

    ``requests`` holds the waiters: memory requests in the L2, the
    core's in-flight records in an L1 (which only hands them back).  A
    secondary miss merges by appending to it.
    """

    __slots__ = ("line_addr", "requests", "is_prefetch")

    def __init__(self, line_addr: int) -> None:
        self.line_addr = line_addr
        self.requests: List[MemoryRequest] = []
        self.is_prefetch = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MshrEntry line={self.line_addr:#x} merged={len(self.requests)}>"


class MshrFile:
    """Abstract MSHR file.

    Concrete files implement ``search``/``allocate``/``deallocate``; all
    return the entry (or None) and the number of slot probes performed.
    ``capacity_limit`` supports dynamic MSHR resizing: allocation fails
    once occupancy reaches the limit even if physical slots remain.
    """

    # "__dict__" holds only the per-instance method wrappers that
    # repro.validate.hooks installs; the snapshot walk reads the other
    # slots and never that dict.
    __slots__ = (
        "capacity", "capacity_limit", "occupancy", "total_probes",
        "total_accesses", "__dict__",
    )

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("MSHR capacity must be >= 1")
        self.capacity = capacity
        self.capacity_limit = capacity
        self.occupancy = 0
        # Aggregate probe statistics (the paper reports probes/access).
        self.total_probes = 0
        self.total_accesses = 0

    def set_capacity_limit(self, limit: int) -> None:
        """Clamp the usable entry count (dynamic MSHR tuning).

        Entries already allocated above the new limit stay until they
        drain naturally; only new allocations are gated.
        """
        if not 1 <= limit <= self.capacity:
            raise ValueError(f"limit {limit} outside [1, {self.capacity}]")
        self.capacity_limit = limit

    @property
    def is_full(self) -> bool:
        return self.occupancy >= self.capacity_limit

    @property
    def avg_probes_per_access(self) -> float:
        if self.total_accesses == 0:
            return 0.0
        return self.total_probes / self.total_accesses

    def _count(self, probes: int) -> int:
        self.total_probes += probes
        self.total_accesses += 1
        return probes

    def contains(self, line_addr: int) -> bool:
        """Untimed membership test (prefetch filtering, assertions).

        Unlike :meth:`search`, this does not model probe latency or count
        toward probe statistics — it represents a cheap presence bit, not
        a full MSHR lookup.
        """
        raise NotImplementedError

    # -- interface -----------------------------------------------------
    def search(self, line_addr: int) -> Tuple[Optional[MshrEntry], int]:
        """Find the entry for a line: ``(entry or None, probes)``."""
        raise NotImplementedError

    def allocate(self, line_addr: int) -> Tuple[Optional[MshrEntry], int]:
        """Allocate a new entry: ``(entry, probes)`` or ``(None, probes)``
        when the file is full (structural hazard; caller must stall)."""
        raise NotImplementedError

    def deallocate(self, line_addr: int) -> int:
        """Free the entry for ``line_addr``; returns probes. Raises
        ``KeyError`` if absent."""
        raise NotImplementedError
