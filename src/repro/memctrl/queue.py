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
from .mapping import DramCoordinates


class MrqEntry:
    """One queued memory request plus its decoded DRAM coordinates.

    ``bank`` caches the :class:`~repro.dram.bank.Bank` object the
    coordinates resolve to — bank identity is fixed for the entry's
    lifetime, and the controller's ready-scan probes it every pump.
    """

    __slots__ = ("request", "coords", "arrival", "bank")

    def __init__(
        self,
        request: MemoryRequest,
        coords: DramCoordinates,
        arrival: int,
        bank=None,
    ):
        self.request = request
        self.coords = coords
        self.arrival = arrival
        self.bank = bank

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MrqEntry req={self.request.req_id} r{self.coords.rank}b{self.coords.bank} t={self.arrival}>"


class MemoryRequestQueue:
    """Bounded FIFO-ordered pool the scheduler picks from."""

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
        bank=None,
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

    def capture_state(self, ctx) -> dict:
        """Queued entries in arrival order.

        Banks are not captured: bank identity is a pure function of the
        coordinates and is re-resolved against the restored device.
        """
        return {
            "v": 1,
            "entries": [
                (ctx.ref_request(e.request), tuple(e.coords), e.arrival)
                for e in self._entries
            ],
        }

    def restore_state(self, state: dict, ctx, device) -> None:
        from ..common.versioning import check_state_version

        check_state_version(state, 1, "MemoryRequestQueue")
        self._entries = []
        for req_idx, coords_tuple, arrival in state["entries"]:
            coords = DramCoordinates(*coords_tuple)
            bank = device.bank(coords.rank, coords.bank)
            self._entries.append(
                MrqEntry(ctx.get_request(req_idx), coords, arrival, bank)
            )
