"""Generic design-space sweeps over configuration fields.

The catalog covers the paper's specific sweeps; ``sweep_field``
generalizes them: vary any :class:`SystemConfig` field across values,
simulate the given mixes, and report GM speedups relative to the first
value.  This is the "what if" tool a user reaches for after reproducing
the paper (e.g. sweep ``rob_size``, ``l2_latency``, ``mrq_capacity``).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional, Sequence

from ..system.config import SystemConfig
from ..system.scale import DEFAULT, ExperimentScale
from ..workloads.mixes import WorkloadMix
from .catalog import HEADLINE_GROUPS, Experiment, ExperimentResult, run_experiment
from .runner import RunPolicy


def sweep_field(
    base: SystemConfig,
    field: str,
    values: Sequence[Any],
    scale: ExperimentScale = DEFAULT,
    mixes: Optional[Sequence[WorkloadMix]] = None,
    seed: int = 42,
    workers: Optional[int] = None,
    policy: Optional[RunPolicy] = None,
) -> ExperimentResult:
    """Vary one config field; everything else pinned to ``base``.

    The result's configs are named ``<field>=<value>``; the first value
    is the baseline (``result.gm("rob_size=96")``).
    """
    if not values:
        raise ValueError("need at least one value to sweep")
    field_names = {f.name for f in dataclasses.fields(SystemConfig)}
    if field not in field_names:
        raise ValueError(
            f"unknown SystemConfig field {field!r}; "
            f"known: {', '.join(sorted(field_names))}"
        )
    if len(set(values)) != len(values):
        raise ValueError("sweep values must be distinct")
    experiment = Experiment(
        name=f"sweep_{field}",
        title=f"Sweep of {field} (GM speedup over {values[0]})",
        configs=lambda: [
            base.derive(name=f"{field}={value}", **{field: value})
            for value in values
        ],
        groups=HEADLINE_GROUPS,
    )
    return run_experiment(
        experiment, scale, mixes, seed=seed, workers=workers, policy=policy
    )
