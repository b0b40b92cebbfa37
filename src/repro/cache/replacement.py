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

from ..common.units import is_power_of_two

POLICIES = ("lru", "random", "plru", "srrip")


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


class TreePlruPolicy:
    """Tree pseudo-LRU: one bit per internal node of a binary way tree.

    Requires power-of-two associativity.  Each access flips the path
    bits away from the accessed way; the victim is found by following
    the bits.
    """

    name = "plru"

    def __init__(self, assoc: int) -> None:
        if not is_power_of_two(assoc):
            raise ValueError("tree-PLRU needs power-of-two associativity")
        self.assoc = assoc
        self._levels = assoc.bit_length() - 1
        # Per-set: (tree bits int, line -> way, free way stack)
        self._state: Dict[int, list] = {}

    def _set_state(self, set_idx: int):
        state = self._state.get(set_idx)
        if state is None:
            state = [0, {}, list(range(self.assoc - 1, -1, -1))]
            self._state[set_idx] = state
        return state

    def _touch(self, state, way: int) -> None:
        """Point every node on the path *away* from ``way``."""
        bits, node = state[0], 1
        for level in range(self._levels - 1, -1, -1):
            direction = (way >> level) & 1
            # Bit semantics: 0 -> victim path goes left, 1 -> right.
            if direction == 0:
                bits |= 1 << node  # we went left; point victim right
            else:
                bits &= ~(1 << node)
            node = (node << 1) | direction
        state[0] = bits

    def on_access(self, cache_set, set_idx: int, line: int) -> None:
        state = self._set_state(set_idx)
        way = state[1].get(line)
        if way is not None:
            self._touch(state, way)

    def on_fill(self, cache_set, set_idx: int, line: int) -> None:
        state = self._set_state(set_idx)
        way = state[2].pop()
        state[1][line] = way
        self._touch(state, way)

    def choose_victim(self, cache_set, set_idx: int) -> int:
        state = self._set_state(set_idx)
        bits, node, way = state[0], 1, 0
        for _ in range(self._levels):
            direction = (bits >> node) & 1
            way = (way << 1) | direction
            node = (node << 1) | direction
        by_way = {w: line for line, w in state[1].items()}
        # The PLRU way must be resident when the set is full.
        return by_way[way]

    def on_evict(self, cache_set, set_idx: int, line: int) -> None:
        state = self._set_state(set_idx)
        way = state[1].pop(line)
        state[2].append(way)


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


def make_policy(name: str, assoc: int, seed: int = 0):
    """Replacement-policy factory used by cache configuration."""
    if name == "lru":
        return LruPolicy()
    if name == "random":
        return RandomPolicy(seed)
    if name == "plru":
        return TreePlruPolicy(assoc)
    if name == "srrip":
        return SrripPolicy()
    raise ValueError(f"unknown replacement policy {name!r}; known: {POLICIES}")
