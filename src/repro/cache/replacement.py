"""Cache replacement policies.

The paper's caches are LRU (Table 1); alternative policies are provided
for sensitivity studies — replacement interacts with the L2 "churn"
effect that motivates dynamic MSHR tuning (Section 5.1).

A policy object serves every set of one cache array.  The array stores
each set as an ``OrderedDict`` mapping line -> dirty; the policy may use
that dict's ordering (LRU does) and/or keep its own per-set metadata.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Dict

#: Policy names accepted in configs (``SystemConfig.l2_replacement``).
POLICIES = ("lru", "random", "srrip")


class LruPolicy:
    """Least-recently-used via the set dict's ordering (LRU -> MRU)."""

    name = "lru"

    def on_access(self, cache_set: "OrderedDict[int, bool]", set_idx: int, line: int) -> None:
        cache_set.move_to_end(line)

    def on_fill(self, cache_set, set_idx: int, line: int) -> None:
        pass  # insertion order already places the line at MRU

    def choose_victim(self, cache_set, set_idx: int) -> int:
        return next(iter(cache_set))

    def on_evict(self, cache_set, set_idx: int, line: int) -> None:
        pass


class RandomPolicy:
    """Uniform random victim selection (deterministic via seed)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def on_access(self, cache_set, set_idx: int, line: int) -> None:
        pass

    def on_fill(self, cache_set, set_idx: int, line: int) -> None:
        pass

    def choose_victim(self, cache_set, set_idx: int) -> int:
        index = self._rng.randrange(len(cache_set))
        for i, line in enumerate(cache_set):
            if i == index:
                return line
        raise RuntimeError("unreachable")

    def on_evict(self, cache_set, set_idx: int, line: int) -> None:
        pass


class SrripPolicy:
    """Static RRIP with 2-bit re-reference prediction values.

    Fills at RRPV 2 ("long"), promotes to 0 on hit, evicts an RRPV-3
    line (aging everyone when none exists).  Scan-resistant, unlike LRU.
    """

    name = "srrip"
    MAX_RRPV = 3

    def __init__(self) -> None:
        self._rrpv: Dict[int, Dict[int, int]] = {}

    def _set_state(self, set_idx: int) -> Dict[int, int]:
        return self._rrpv.setdefault(set_idx, {})

    def on_access(self, cache_set, set_idx: int, line: int) -> None:
        self._set_state(set_idx)[line] = 0

    def on_fill(self, cache_set, set_idx: int, line: int) -> None:
        self._set_state(set_idx)[line] = self.MAX_RRPV - 1

    def choose_victim(self, cache_set, set_idx: int) -> int:
        rrpv = self._set_state(set_idx)
        while True:
            for line in cache_set:  # oldest-inserted first on ties
                if rrpv.get(line, self.MAX_RRPV) >= self.MAX_RRPV:
                    return line
            for line in rrpv:
                rrpv[line] = min(self.MAX_RRPV, rrpv[line] + 1)

    def on_evict(self, cache_set, set_idx: int, line: int) -> None:
        self._set_state(set_idx).pop(line, None)


def make_policy(name: str, seed: int = 0):
    """Replacement-policy factory used by cache configuration."""
    if name == "lru":
        return LruPolicy()
    if name == "random":
        return RandomPolicy(seed)
    if name == "srrip":
        return SrripPolicy()
    raise ValueError(f"unknown replacement policy {name!r}; known: {POLICIES}")
