"""Prefetchers from Table 1: next-line and IP-based stride.

A prefetcher observes demand accesses (address + PC + hit/miss) and
suggests candidate line addresses.  The owning cache filters candidates
against its own contents/MSHRs and injects PREFETCH requests.

``observe`` runs once per demand access, and almost every call suggests
nothing, so "no candidates" is the shared empty tuple :data:`NO_CANDIDATES`
(test the result for truth; do not compare it with ``[]``).  A class
whose ``observe`` neither trains nor emits on a hit says so with
``trains_on_hits = False`` (absent means it does) and
:class:`CompositePrefetcher` leaves it out of the hit path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

#: What ``observe`` returns when it suggests nothing (allocation-free).
NO_CANDIDATES: Sequence[int] = ()


class NextLinePrefetcher:
    """On a demand miss, fetch the next sequential line(s)."""

    def __init__(self, line_size: int = 64, degree: int = 1) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.line_size = line_size
        self.degree = degree

    #: Stateless, and silent on hits.
    trains_on_hits = False

    def observe(self, addr: int, pc: int, was_miss: bool) -> Sequence[int]:
        if not was_miss:
            return NO_CANDIDATES
        line = addr & ~(self.line_size - 1)
        return [line + self.line_size * i for i in range(1, self.degree + 1)]

    def capture_state(self) -> dict:
        return {"v": 1}

    def restore_state(self, state: dict) -> None:
        pass


class _StrideEntry:
    __slots__ = ("last_addr", "stride", "confidence")

    def __init__(self, last_addr: int) -> None:
        self.last_addr = last_addr
        self.stride = 0
        self.confidence = 0


class IpStridePrefetcher:
    """Classic per-PC stride detector (Intel's "IP-based stride", ref [9]).

    A table indexed by PC tracks the last address and detected stride;
    after ``threshold`` consecutive confirmations it prefetches
    ``degree`` strides ahead.
    """

    def __init__(
        self,
        line_size: int = 64,
        table_size: int = 256,
        threshold: int = 2,
        degree: int = 2,
    ) -> None:
        if table_size < 1 or threshold < 1 or degree < 1:
            raise ValueError("table_size, threshold and degree must be >= 1")
        self.line_size = line_size
        self.table_size = table_size
        self.threshold = threshold
        self.degree = degree
        self._table: Dict[int, _StrideEntry] = {}

    def observe(self, addr: int, pc: int, was_miss: bool) -> Sequence[int]:
        slot = pc % self.table_size
        entry = self._table.get(slot)
        if entry is None:
            self._table[slot] = _StrideEntry(addr)
            return NO_CANDIDATES
        stride = addr - entry.last_addr
        entry.last_addr = addr
        if stride == 0 or stride != entry.stride:
            entry.stride = stride
            entry.confidence = 0
            return NO_CANDIDATES
        threshold = self.threshold
        if entry.confidence + 1 < threshold:
            entry.confidence += 1
            return NO_CANDIDATES
        entry.confidence = threshold
        candidates = []
        mask = ~(self.line_size - 1)
        for i in range(1, self.degree + 1):
            target = addr + stride * i
            if target >= 0:
                candidates.append(target & mask)
        return candidates

    def capture_state(self) -> dict:
        return {
            "v": 1,
            "table": [
                (slot, entry.last_addr, entry.stride, entry.confidence)
                for slot, entry in self._table.items()
            ],
        }

    def restore_state(self, state: dict) -> None:
        table: Dict[int, _StrideEntry] = {}
        for slot, last_addr, stride, confidence in state["table"]:
            entry = _StrideEntry(last_addr)
            entry.stride = stride
            entry.confidence = confidence
            table[slot] = entry
        self._table = table


class CompositePrefetcher:
    """Fan-in of several prefetchers with de-duplication of candidates."""

    def __init__(self, prefetchers: Optional[List[object]] = None) -> None:
        self.prefetchers = list(prefetchers or [])
        # The members a demand hit has to reach (the rest are no-ops on
        # hits); fixed at construction, like the fan-in itself.
        self._hit_trained = [
            p for p in self.prefetchers if getattr(p, "trains_on_hits", True)
        ]

    def observe(self, addr: int, pc: int, was_miss: bool) -> Sequence[int]:
        merged: Sequence[int] = NO_CANDIDATES
        for prefetcher in self.prefetchers if was_miss else self._hit_trained:
            candidates = prefetcher.observe(addr, pc, was_miss)
            if candidates:
                if not merged:
                    merged = []
                # A handful of lines at most: a list scan de-duplicates
                # without building a set.
                for candidate in candidates:
                    if candidate not in merged:
                        merged.append(candidate)
        return merged

    def capture_state(self) -> dict:
        return {
            "v": 1,
            "children": [p.capture_state() for p in self.prefetchers],
        }

    def restore_state(self, state: dict) -> None:
        children = state["children"]
        if len(children) != len(self.prefetchers):
            raise ValueError(
                f"snapshot has {len(children)} prefetchers, composite has "
                f"{len(self.prefetchers)}"
            )
        for prefetcher, child in zip(self.prefetchers, children):
            prefetcher.restore_state(child)
