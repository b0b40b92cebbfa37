"""System assembly: configurations, the machine builder, and scales."""

from .config import (
    SystemConfig,
    config_2d,
    config_3d,
    config_3d_fast,
    config_3d_wide,
    config_aggressive,
    config_dual_mc,
    config_quad_mc,
    with_mshr,
)
from .machine import CoreResult, Machine, MachineResult, run_workload
from .scale import DEFAULT, LARGE, SMOKE, ExperimentScale, get_scale
from .validation import LatencyBreakdown, latency_ladder, unloaded_read_latency

__all__ = [
    "CoreResult",
    "DEFAULT",
    "ExperimentScale",
    "LARGE",
    "LatencyBreakdown",
    "Machine",
    "MachineResult",
    "SMOKE",
    "SystemConfig",
    "config_2d",
    "config_3d",
    "config_3d_fast",
    "config_3d_wide",
    "config_aggressive",
    "config_dual_mc",
    "config_quad_mc",
    "get_scale",
    "run_workload",
    "latency_ladder",
    "unloaded_read_latency",
    "with_mshr",
]
