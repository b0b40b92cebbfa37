"""Trace-driven core model."""

from .core import Core
from .trace import Trace, TraceItem

__all__ = ["Core", "Trace", "TraceItem"]
