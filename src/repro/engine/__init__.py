"""Discrete-event simulation engine (integer cycle time)."""

from .simulator import (
    Engine,
    SimulationDeadlock,
    SimulationError,
    SimulationHang,
    Watchdog,
)

__all__ = [
    "Engine",
    "SimulationDeadlock",
    "SimulationError",
    "SimulationHang",
    "Watchdog",
]
