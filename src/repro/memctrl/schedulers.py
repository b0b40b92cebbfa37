"""Memory access schedulers.

The paper assumes "a memory controller implementation that attempts to
schedule accesses to the same row together to increase row buffer hit
rates" (Rixner et al.'s FR-FCFS); a plain FIFO scheduler is provided as a
baseline and for the scheduling ablation.
"""

from __future__ import annotations

from typing import List, Protocol

from ..dram.device import DramDevice
from .queue import MrqEntry


class Scheduler(Protocol):
    """Picks which ready MRQ entry to issue next."""

    def select(self, ready: List[MrqEntry], device: DramDevice, now: int) -> MrqEntry:
        """Choose one entry from ``ready`` (never empty)."""
        ...  # pragma: no cover - protocol definition


class FcfsScheduler:
    """First-come-first-serve: always the oldest ready request."""

    name = "fcfs"
    #: Stateless: picking the sole ready entry needs no scheduler call.
    single_trivial = True

    def select(self, ready: List[MrqEntry], device: DramDevice, now: int) -> MrqEntry:
        return min(ready, key=lambda e: e.arrival)


class FrFcfsScheduler:
    """First-ready FCFS: oldest row-buffer *hit* first, else oldest.

    Row-hit status is probed against the live row-buffer cache state, so
    multi-entry row-buffer caches automatically widen the set of hits the
    scheduler can exploit.
    """

    name = "fr-fcfs"
    #: Stateless: picking the sole ready entry needs no scheduler call.
    single_trivial = True

    def select(self, ready: List[MrqEntry], device: DramDevice, now: int) -> MrqEntry:
        best_hit: MrqEntry | None = None
        oldest: MrqEntry | None = None
        for entry in ready:
            if oldest is None or entry.arrival < oldest.arrival:
                oldest = entry
            bank = entry.bank
            if bank is None:
                coords = entry.coords
                bank = device.bank(coords.rank, coords.bank)
            if bank.is_row_open(entry.coords.row):
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

    name = "frfcfs-writedrain"

    def __init__(self, high_watermark: int = 12, low_watermark: int = 4) -> None:
        if not 0 <= low_watermark < high_watermark:
            raise ValueError("need 0 <= low watermark < high watermark")
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self._draining = False
        self._inner = FrFcfsScheduler()

    def select(self, ready: List[MrqEntry], device: DramDevice, now: int) -> MrqEntry:
        reads = [e for e in ready if not e.request.is_write]
        writes = [e for e in ready if e.request.is_write]
        if self._draining:
            if len(writes) <= self.low_watermark:
                self._draining = False
        elif len(writes) >= self.high_watermark:
            self._draining = True
        if self._draining and writes:
            return self._inner.select(writes, device, now)
        if reads:
            return self._inner.select(reads, device, now)
        return self._inner.select(writes, device, now)


class BatchScheduler:
    """Parallelism-aware batching (PAR-BS-lite) for multiprogram fairness.

    FR-FCFS can starve random-access programs behind streaming ones
    (streams always have a row hit ready).  Batching bounds that: the
    scheduler snapshots the currently-queued requests as a *batch* and
    serves the whole batch (row hits first within it) before admitting
    newer requests.  No request waits for more than one batch of others.
    """

    name = "batch"

    def __init__(self, max_batch: int = 16) -> None:
        if max_batch < 1:
            raise ValueError("batch size must be >= 1")
        self.max_batch = max_batch
        self._batch_ids: set = set()
        self._inner = FrFcfsScheduler()

    def select(self, ready: List[MrqEntry], device: DramDevice, now: int) -> MrqEntry:
        current = [e for e in ready if e.request.req_id in self._batch_ids]
        if not current:
            # Batch exhausted (or first call): form a new one from the
            # oldest queued requests.
            ordered = sorted(ready, key=lambda e: e.arrival)
            batch = ordered[: self.max_batch]
            self._batch_ids = {e.request.req_id for e in batch}
            current = batch
        chosen = self._inner.select(current, device, now)
        self._batch_ids.discard(chosen.request.req_id)
        return chosen


def make_scheduler(name: str) -> Scheduler:
    """Scheduler factory: "fcfs" | "fr-fcfs" | "frfcfs-writedrain" | "batch"."""
    if name == "fcfs":
        return FcfsScheduler()
    if name == "fr-fcfs":
        return FrFcfsScheduler()
    if name == "frfcfs-writedrain":
        return WriteDrainScheduler()
    if name == "batch":
        return BatchScheduler()
    raise ValueError(f"unknown scheduler {name!r}")
