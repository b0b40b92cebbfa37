"""Experiment scaling knobs.

The paper warms 500 M instructions and measures 100 M per program on a
compiled simulator; a pure-Python model cannot do that, so experiments
run at a configurable scale.  Relative results still depend on the
warm-up: on H1 with ``2MC-8R``, the 4RB/1RB speedup is 1.035 after a
10 k-instruction warm-up and 1.703 after 600 k (full detail), because a
short warm-up leaves the 12 MiB L2 cold.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentScale:
    """Per-core instruction budgets for one simulation run."""

    name: str
    warmup_instructions: int
    measure_instructions: int

    def __post_init__(self) -> None:
        if self.warmup_instructions < 0 or self.measure_instructions < 1:
            raise ValueError("instruction budgets must be sensible")


SMOKE = ExperimentScale("smoke", 2_000, 8_000)
DEFAULT = ExperimentScale("default", 10_000, 40_000)
LARGE = ExperimentScale("large", 50_000, 200_000)

_SCALES = {scale.name: scale for scale in (SMOKE, DEFAULT, LARGE)}


def get_scale(name: str) -> ExperimentScale:
    try:
        return _SCALES[name]
    except KeyError:
        raise KeyError(
            f"unknown scale {name!r}; known: {', '.join(sorted(_SCALES))}"
        ) from None

