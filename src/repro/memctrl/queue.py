"""The Memory Request Queue (MRQ).

The paper keeps the *aggregate* MRQ capacity constant at 32 entries across
all controllers: one MC gets a 32-entry queue, four MCs get 8 entries each
(Section 4.1).

The queue is a plain arrival-ordered list of :class:`MrqEntry` handles;
the controller's pump, the schedulers and the checkers all iterate it.
"""

from __future__ import annotations

from typing import List, Optional

from ..common.request import MemoryRequest
from ..dram.bank import Bank
from .mapping import DramCoordinates


class MrqEntry:
    """One queued memory request plus its decoded DRAM coordinates.

    ``bank`` is the :class:`~repro.dram.bank.Bank` the coordinates
    resolve to, fixed for the entry's lifetime: the controller's ready
    scan, the scheduler and the issue all reach DRAM through it.
    """

    __slots__ = ("request", "coords", "arrival", "bank")

    def __init__(
        self,
        request: MemoryRequest,
        coords: DramCoordinates,
        arrival: int,
        bank: Bank,
    ):
        self.request = request
        self.coords = coords
        self.arrival = arrival
        self.bank = bank

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MrqEntry req={self.request.req_id} r{self.coords.rank}b{self.coords.bank} t={self.arrival}>"


class MemoryRequestQueue:
    """Bounded FIFO-ordered pool the scheduler picks from."""

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("MRQ capacity must be >= 1")
        self.capacity = capacity
        self._entries: List[MrqEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._entries

    @property
    def entries(self) -> List[MrqEntry]:
        """Entries in arrival order (the scheduler may pick any of them)."""
        return self._entries

    def push(
        self,
        request: MemoryRequest,
        coords: DramCoordinates,
        now: int,
        bank: Bank,
    ) -> Optional[MrqEntry]:
        """Append a request; returns None (rejected) when full."""
        if self.is_full:
            return None
        entry = MrqEntry(request, coords, now, bank)
        self._entries.append(entry)
        return entry

    def remove(self, entry: MrqEntry) -> None:
        self._entries.remove(entry)

    def occupancy(self) -> float:
        return len(self._entries) / self.capacity

