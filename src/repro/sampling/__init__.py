"""Sampled simulation: functional warmup + detailed measurement intervals.

See :mod:`repro.sampling.plan` for the schedule description and spec
syntax, and :mod:`repro.sampling.controller` for the phase driver.
"""

from .estimate import IntervalEstimate, estimate_mean, t_critical_95
from .plan import SamplingPlan, parse_sample_spec
from .controller import run_sampled

__all__ = [
    "IntervalEstimate",
    "SamplingPlan",
    "estimate_mean",
    "parse_sample_spec",
    "run_sampled",
    "t_critical_95",
]
