"""Reference prefetchers: the three classes ``repro.cache.prefetch``
had before they became one :class:`~repro.cache.prefetch.Prefetcher`,
kept verbatim as the oracle its property test compares against.

A prefetcher observes demand accesses (address + PC + hit/miss) and
suggests candidate line addresses.  A class whose ``observe`` neither
trains nor emits on a hit says so with ``trains_on_hits = False``
(absent means it does) and :class:`CompositePrefetcher` leaves it out
of the hit path: its ``hit_observer`` is the one call a demand hit
makes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

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


class CompositePrefetcher:
    """Fan-in of several prefetchers with de-duplication of candidates.

    ``hit_observer`` is what a demand hit calls, fixed at construction
    like the fan-in itself: ``None`` when no member trains on hits, the
    one member's own ``observe`` when exactly one does (the next-line +
    IP-stride pair of Table 1), else this composite's :meth:`observe`.
    With a single member nothing is merged, so its candidates are not
    de-duplicated; the caller's issue filter must drop a repeated line.
    """

    def __init__(self, prefetchers: Optional[List[object]] = None) -> None:
        self.prefetchers = list(prefetchers or [])
        # The members a demand hit has to reach (the rest are no-ops on
        # hits).
        self._hit_trained = [
            p for p in self.prefetchers if getattr(p, "trains_on_hits", True)
        ]
        self.hit_observer: Optional[Callable[[int, int, bool], Sequence[int]]]
        if not self._hit_trained:
            self.hit_observer = None
        elif len(self._hit_trained) == 1:
            self.hit_observer = self._hit_trained[0].observe
        else:
            self.hit_observer = self.observe

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

