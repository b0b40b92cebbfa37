"""Sampling plans: how a run alternates functional and detailed phases.

A :class:`SamplingPlan` describes one SMARTS-style schedule: after an
initial functional warmup covering the configured warmup quota, the run
repeats ``k`` intervals of

    [functional skip of ``warmup`` instr] ->
    [detailed, unmeasured ``detail_warmup`` instr] ->
    [detailed, measured ``detailed`` instr]

until the detailed measurement intervals together span the configured
measurement quota.  Per-interval IPC samples are extrapolated to a
full-run estimate with a confidence interval (see
:mod:`repro.sampling.estimate`).

The CLI spec syntax mirrors ``--check``'s comma-separated style::

    --sample on
    --sample detailed:1200,warmup:4650
    --sample detailed:1200,warmup:4650,detail_warmup:400,min_intervals:8

and travels as an argument: ``run_matrix(sampling=...)`` takes the same
string, and worker processes receive it on each cell task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Spec keys accepted by :func:`parse_sample_spec`, with defaults.  The
#: default plan was tuned on the figure-4 configs at the ``large``
#: experiment scale: per-config relative-speedup error stays under 2%
#: while the sampled run finishes >3x faster than full detail (see
#: ``python -m repro validate sampling``).
_DEFAULTS = {
    "detailed": 1200,
    "warmup": 4650,
    "detail_warmup": 400,
    "min_intervals": 8,
}


@dataclass(frozen=True)
class SamplingPlan:
    """One alternating-phase schedule (all units: instructions/core)."""

    #: Measured detailed instructions per interval.
    detailed: int = 1200
    #: Functional fast-forward instructions between intervals.
    warmup: int = 4650
    #: Detailed-but-unmeasured instructions after each functional skip
    #: (re-fills pipeline/MSHR/queue state before measuring).
    detail_warmup: int = 400
    #: Lower bound on the number of measurement intervals (the
    #: confidence interval needs a few degrees of freedom).
    min_intervals: int = 8

    def __post_init__(self) -> None:
        if self.detailed < 1:
            raise ValueError("detailed interval must be >= 1 instruction")
        if self.warmup < 0 or self.detail_warmup < 0:
            raise ValueError("warmup lengths cannot be negative")
        if self.min_intervals < 2:
            raise ValueError("need >= 2 intervals for a confidence interval")

    @property
    def interval_span(self) -> int:
        """Instructions one full interval advances a core."""
        return self.warmup + self.detail_warmup + self.detailed

    def intervals_for(self, measure_instructions: int) -> int:
        """Number of intervals covering ``measure_instructions``."""
        span = self.interval_span
        by_span = -(-measure_instructions // span) if span else 1
        return max(self.min_intervals, by_span)

    def spec(self) -> str:
        """The canonical spec string parsing back to this plan."""
        return (
            f"detailed:{self.detailed},warmup:{self.warmup},"
            f"detail_warmup:{self.detail_warmup},"
            f"min_intervals:{self.min_intervals}"
        )


def parse_sample_spec(spec: Optional[str]) -> Optional[SamplingPlan]:
    """Parse ``"detailed:N,warmup:M[,...]"`` into a plan.

    ``None``/empty → ``None`` (full-detail run).  ``"on"``/``"default"``
    → the default plan.  Unknown keys and malformed counts raise
    ``ValueError`` naming the offending part.
    """
    if spec is None:
        return None
    spec = spec.strip()
    if not spec:
        return None
    if spec in ("on", "default"):
        return SamplingPlan()
    values = dict(_DEFAULTS)
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition(":")
        key = key.strip()
        if not sep or key not in _DEFAULTS:
            raise ValueError(
                f"bad sampling spec part {part!r}; expected "
                f"key:count with key in {sorted(_DEFAULTS)}"
            )
        try:
            values[key] = int(raw.strip())
        except ValueError:
            raise ValueError(
                f"bad sampling spec count {raw!r} for key {key!r}"
            ) from None
    return SamplingPlan(**values)
