"""3D integration modelling: TSVs, die geometry, density, thermal, and
the stack's usage as flat memory or as an L4 cache."""

from .geometry import DramDensity, StackPlan, TsvSpec, plan_stack
from .modes import SramTagStore, StackModeMemory, sram_tag_bytes
from .thermal import (
    DRAM_THERMAL_LIMIT_C,
    StackThermalModel,
    ThermalLayer,
    default_stack,
    refresh_period_for_temperature,
)

__all__ = [
    "DRAM_THERMAL_LIMIT_C",
    "DramDensity",
    "SramTagStore",
    "StackModeMemory",
    "StackPlan",
    "StackThermalModel",
    "ThermalLayer",
    "TsvSpec",
    "default_stack",
    "plan_stack",
    "refresh_period_for_temperature",
    "sram_tag_bytes",
]
