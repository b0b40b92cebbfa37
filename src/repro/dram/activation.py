"""Rank-level activation governor: tRRD and tFAW constraints.

Row activations draw large currents, so DRAM limits how fast a rank may
issue them: consecutive ACTs to *different* banks are spaced by tRRD,
and any four ACTs must span at least tFAW.  Every bank in a rank shares
one :class:`ActivationWindow`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from .timing import DramTiming


class ActivationWindow:
    """Tracks recent activations of one rank and gates new ones."""

    __slots__ = ("t_rrd", "t_faw", "window", "_recent")

    def __init__(self, timing: DramTiming, window: int = 4) -> None:
        if window < 1:
            raise ValueError("activation window must hold at least one ACT")
        self.t_rrd = timing.t_rrd
        self.t_faw = timing.t_faw
        self.window = window
        self._recent: Deque[int] = deque(maxlen=window)

    def earliest_activate(self, time: int) -> int:
        """Earliest cycle >= ``time`` a new ACT may issue in this rank."""
        if self._recent:
            time = max(time, self._recent[-1] + self.t_rrd)
            if len(self._recent) == self.window:
                time = max(time, self._recent[0] + self.t_faw)
        return time

    def record(self, time: int) -> None:
        """Register an ACT issued at ``time`` (must be non-decreasing)."""
        if self._recent and time < self._recent[-1]:
            raise ValueError(
                f"activation at {time} precedes last at {self._recent[-1]}"
            )
        self._recent.append(time)

    @property
    def recent_activations(self) -> tuple:
        return tuple(self._recent)

