"""Memory access schedulers.

The paper assumes "a memory controller implementation that attempts to
schedule accesses to the same row together to increase row buffer hit
rates" (Rixner et al.'s FR-FCFS); a plain FIFO scheduler is provided as a
baseline and for the scheduling ablation.
"""

from __future__ import annotations

from typing import List, Protocol

from .queue import MrqEntry


class Scheduler(Protocol):
    """Picks which ready MRQ entry to issue next."""

    def select(self, ready: List[MrqEntry]) -> MrqEntry:
        """Choose one entry from ``ready`` (never empty)."""
        ...  # pragma: no cover - protocol definition


class FcfsScheduler:
    """First-come-first-serve: always the oldest ready request."""

    __slots__ = ()

    name = "fcfs"
    #: Stateless: picking the sole ready entry needs no scheduler call.
    single_trivial = True

    def select(self, ready: List[MrqEntry]) -> MrqEntry:
        return min(ready, key=lambda e: e.arrival)


class FrFcfsScheduler:
    """First-ready FCFS: oldest row-buffer *hit* first, else oldest.

    Row-hit status is probed against the live row-buffer cache state, so
    multi-entry row-buffer caches automatically widen the set of hits the
    scheduler can exploit (``Bank.is_row_open``, read inline).
    """

    __slots__ = ()

    name = "fr-fcfs"
    #: Stateless: picking the sole ready entry needs no scheduler call.
    single_trivial = True

    def select(self, ready: List[MrqEntry]) -> MrqEntry:
        best_hit: MrqEntry | None = None
        oldest: MrqEntry | None = None
        for entry in ready:
            if oldest is None or entry.arrival < oldest.arrival:
                oldest = entry
            if entry.coords.row in entry.bank.row_buffers._entries:
                if best_hit is None or entry.arrival < best_hit.arrival:
                    best_hit = entry
        assert oldest is not None
        return best_hit if best_hit is not None else oldest


class WriteDrainScheduler:
    """FR-FCFS with read priority and batched write draining.

    Reads are latency-critical (they block cores); writes/writebacks are
    posted.  This scheduler serves reads first (row hits first among
    them) and only turns to writes when none are pending or when the
    backlog of writes crosses a high watermark, at which point it drains
    them in a burst down to a low watermark — the standard technique to
    avoid wasting row-buffer locality on interleaved write turnarounds.
    """

    __slots__ = ("high_watermark", "low_watermark", "_draining", "_inner")

    name = "frfcfs-writedrain"

    def __init__(self, high_watermark: int = 12, low_watermark: int = 4) -> None:
        if not 0 <= low_watermark < high_watermark:
            raise ValueError("need 0 <= low watermark < high watermark")
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self._draining = False
        self._inner = FrFcfsScheduler()

    def select(self, ready: List[MrqEntry]) -> MrqEntry:
        reads = [e for e in ready if not e.request.is_write]
        writes = [e for e in ready if e.request.is_write]
        if self._draining:
            if len(writes) <= self.low_watermark:
                self._draining = False
        elif len(writes) >= self.high_watermark:
            self._draining = True
        if self._draining and writes:
            return self._inner.select(writes)
        if reads:
            return self._inner.select(reads)
        return self._inner.select(writes)


#: Scheduler names accepted in configs (``SystemConfig.scheduler``).
SCHEDULERS = ("fcfs", "fr-fcfs", "frfcfs-writedrain")


def make_scheduler(name: str) -> Scheduler:
    """Scheduler factory: one of :data:`SCHEDULERS`."""
    if name == "fcfs":
        return FcfsScheduler()
    if name == "fr-fcfs":
        return FrFcfsScheduler()
    if name == "frfcfs-writedrain":
        return WriteDrainScheduler()
    raise ValueError(f"unknown scheduler {name!r}; expected one of {SCHEDULERS}")
