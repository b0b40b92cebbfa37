"""The Memory Request Queue (MRQ).

The paper keeps the *aggregate* MRQ capacity constant at 32 entries across
all controllers: one MC gets a 32-entry queue, four MCs get 8 entries each
(Section 4.1).

The queue is a plain arrival-ordered list of :class:`MrqEntry` handles;
the controller's enqueue appends to it, and its pump, the schedulers
and the checkers iterate it.
"""

from __future__ import annotations

from typing import List

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
    """Bounded pool the scheduler picks from.

    ``entries`` holds the queued :class:`MrqEntry` handles in arrival
    order (the scheduler may pick any of them).
    :meth:`~repro.memctrl.controller.MemoryController.enqueue` appends
    while fewer than ``capacity`` are queued, and the controller's pump
    removes the one it issues.
    """

    __slots__ = ("capacity", "entries")

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("MRQ capacity must be >= 1")
        self.capacity = capacity
        self.entries: List[MrqEntry] = []

    def __len__(self) -> int:
        return len(self.entries)
