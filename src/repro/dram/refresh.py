"""Periodic DRAM refresh modelled as analytic blackout windows.

Rather than injecting refresh commands into the event queue (thousands of
events that almost never interact with anything), each rank computes, for
any proposed command start time, the earliest cycle outside a refresh
blackout.  A blackout of ``tRFC`` cycles opens every ``tREFI`` cycles.
The paper uses a 64 ms retention period off-chip and 32 ms on-stack.
"""

from __future__ import annotations

from .timing import DramTiming


class RefreshSchedule:
    """Deterministic all-bank refresh: busy for tRFC every tREFI cycles.

    ``phase`` staggers different ranks so they do not all refresh in the
    same cycle (real controllers do this to avoid current spikes, and it
    also avoids artificial whole-memory stalls in the model).  Window
    ``k`` opens a blackout at ``phase + k * t_refi``; there is no
    blackout before ``phase``.
    """

    __slots__ = ("t_refi", "t_rfc", "phase")

    def __init__(self, timing: DramTiming, phase: int = 0) -> None:
        self.t_refi = timing.refresh_interval
        self.t_rfc = timing.t_rfc
        if self.t_refi <= self.t_rfc:
            raise ValueError(
                f"refresh interval {self.t_refi} must exceed blackout {self.t_rfc}"
            )
        self.phase = phase % self.t_refi

    def epoch(self, time: int) -> int:
        """Which refresh window ``time`` falls in (monotone in time).

        :meth:`~repro.dram.bank.Bank.access` computes this inline."""
        if time >= self.phase:
            return (time - self.phase) // self.t_refi
        return -1

    def earliest_available(self, time: int) -> int:
        """Earliest cycle >= ``time`` that is outside a blackout window."""
        if time >= self.phase:
            offset = (time - self.phase) % self.t_refi
            if offset < self.t_rfc:
                return time + (self.t_rfc - offset)
        return time

    def blackout_cycles_until(self, time: int) -> int:
        """Total blackout cycles in [0, time) — used for utilisation stats."""
        if time <= self.phase:
            return 0
        span = time - self.phase
        full_windows = span // self.t_refi
        tail = min(span % self.t_refi, self.t_rfc)
        return full_windows * self.t_rfc + tail
