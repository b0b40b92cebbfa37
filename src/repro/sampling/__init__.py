"""Sampled simulation: functional warmup + detailed measurement intervals.

See :mod:`repro.sampling.plan` for the schedule description and spec
syntax, and :mod:`repro.sampling.estimate` for the confidence intervals.
A plan runs through ``Machine.run(..., sampling=plan)``, whose one
schedule (:mod:`repro.system.run`) a full-detail run shares.
"""

from .estimate import IntervalEstimate, estimate_mean, t_critical_95
from .plan import SamplingPlan, parse_sample_spec

__all__ = [
    "IntervalEstimate",
    "SamplingPlan",
    "estimate_mean",
    "parse_sample_spec",
    "t_critical_95",
]
