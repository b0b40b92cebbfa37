"""Hit/miss predictors for the tags-in-DRAM (alloy) L4 organization.

With tags embedded in the stacked DRAM lines (TADs), discovering
whether an access hits costs a full stack DRAM read.  A hit/miss
predictor decides *before* the tag is known which path to start:

* predicted **hit**  — read the TAD from the stack; if the tag
  mismatches, the off-chip fetch starts only after that wasted read
  (the serialization penalty of a false hit).
* predicted **miss** — go straight to off-chip DRAM, skipping the
  stack read entirely (the alloy benefit when correct).

Every predictor is deterministic: same decision stream for the same
request stream, pinned by golden fingerprints in
``tests/stack3d/test_predictor.py``.
"""

from __future__ import annotations

from typing import Callable, List

#: Predictor kinds accepted by ``SystemConfig.l4_predictor``.
PREDICTOR_KINDS = ("oracle", "always-hit", "always-miss", "map-i")


class HitMissPredictor:
    """Interface: predict before the tag is known, learn afterwards."""

    name = "base"

    def predict(self, line: int, pc: int) -> bool:
        raise NotImplementedError

    def update(self, line: int, pc: int, hit: bool) -> None:
        """Observe the resolved outcome (no-op for stateless kinds)."""

class OraclePredictor(HitMissPredictor):
    """Perfect knowledge: consults the shadow tag truth directly.

    The upper bound every real predictor is measured against, and the
    predictor the mode-equivalence battery uses (an oracle never takes
    the wasted-read or serialized-miss paths).
    """

    name = "oracle"

    def __init__(self, truth: Callable[[int], bool]) -> None:
        self._truth = truth

    def predict(self, line: int, pc: int) -> bool:
        return self._truth(line)


class AlwaysHitPredictor(HitMissPredictor):
    """Degenerate: every access reads the stack TAD first.

    Equivalent to a predictor-less alloy cache; under a miss storm it
    pays the full serialized read-then-fetch penalty on every access —
    the adversarial case for MSHR fallback deadlocks.
    """

    name = "always-hit"

    def predict(self, line: int, pc: int) -> bool:
        return True


class AlwaysMissPredictor(HitMissPredictor):
    """Degenerate: every access bypasses the stack read."""

    name = "always-miss"

    def predict(self, line: int, pc: int) -> bool:
        return False


class MapIPredictor(HitMissPredictor):
    """MAP-I: instruction-indexed saturating counters (alloy cache).

    A table of 3-bit counters indexed by a hash of the requesting PC;
    a counter value in the hit half predicts hit.  Counters start at
    the weakly-hit threshold so cold code optimistically tries the
    stack first (misses quickly train it toward bypass).
    """

    name = "map-i"

    #: 3-bit saturating counter bounds and the predict-hit threshold.
    COUNTER_MAX = 7
    THRESHOLD = 4

    def __init__(self, entries: int = 256) -> None:
        if entries < 1:
            raise ValueError("MAP-I table needs at least one entry")
        self.entries = entries
        self.table: List[int] = [self.THRESHOLD] * entries

    def _index(self, pc: int) -> int:
        # Fibonacci hashing of the PC (word-aligned bits dropped).
        return ((pc >> 2) * 0x9E3779B97F4A7C15 & (1 << 64) - 1) % self.entries

    def predict(self, line: int, pc: int) -> bool:
        return self.table[self._index(pc)] >= self.THRESHOLD

    def update(self, line: int, pc: int, hit: bool) -> None:
        index = self._index(pc)
        value = self.table[index]
        if hit:
            if value < self.COUNTER_MAX:
                self.table[index] = value + 1
        elif value > 0:
            self.table[index] = value - 1

def make_predictor(
    kind: str, truth: Callable[[int], bool]
) -> HitMissPredictor:
    """Build a predictor by config name; ``truth`` feeds the oracle."""
    if kind == "oracle":
        return OraclePredictor(truth)
    if kind == "always-hit":
        return AlwaysHitPredictor()
    if kind == "always-miss":
        return AlwaysMissPredictor()
    if kind == "map-i":
        return MapIPredictor()
    raise ValueError(f"unknown predictor {kind!r}; known: {PREDICTOR_KINDS}")
