"""DRAM device models: timing, banks, row-buffer caches, refresh."""

from .bank import Bank, build_banks
from .power import DramEnergyParams, DramPowerModel, EnergyReport, compare_energy
from .refresh import RefreshSchedule
from .rowbuffer import RowBufferCache
from .timing import DramTiming, ddr2_commodity, stacked_commodity, true_3d

__all__ = [
    "Bank",
    "DramEnergyParams",
    "DramPowerModel",
    "DramTiming",
    "EnergyReport",
    "RefreshSchedule",
    "RowBufferCache",
    "build_banks",
    "compare_energy",
    "ddr2_commodity",
    "stacked_commodity",
    "true_3d",
]
