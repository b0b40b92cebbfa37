"""Discrete-event simulation engine (integer cycle time)."""

from .event import Event
from .simulator import (
    Engine,
    SimulationDeadlock,
    SimulationError,
    SimulationHang,
    Watchdog,
)

__all__ = [
    "Engine",
    "Event",
    "SimulationDeadlock",
    "SimulationError",
    "SimulationHang",
    "Watchdog",
]
