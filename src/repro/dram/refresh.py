"""Periodic DRAM refresh modelled as analytic blackout windows.

Rather than injecting refresh commands into the event queue (thousands of
events that almost never interact with anything), each rank computes, for
any proposed command start time, the earliest cycle outside a refresh
blackout.  A blackout of ``tRFC`` cycles opens every ``tREFI`` cycles.
The paper uses a 64 ms retention period off-chip and 32 ms on-stack.

The refresh *rate* can change mid-run: the RAS layer (:mod:`repro.ras`)
escalates to 2x/4x refresh when retention errors cluster.  A rate change
is modelled as a new cadence **regime** that takes effect at the next
window boundary after the change — never retroactively — so blackout
accounting, epoch numbering, and any shadow replaying the same call
sequence (see :class:`repro.validate.dram_timing.ShadowBank`) stay
consistent cycle-for-cycle.
"""

from __future__ import annotations

from typing import List, Tuple

from .timing import DramTiming


class RefreshSchedule:
    """Deterministic all-bank refresh: busy for tRFC every tREFI cycles.

    ``phase`` staggers different ranks so they do not all refresh in the
    same cycle (real controllers do this to avoid current spikes, and it
    also avoids artificial whole-memory stalls in the model).

    The active cadence is the *anchor regime* ``(anchor, t_refi)``:
    window ``k`` of the current regime opens a blackout at
    ``anchor + k * t_refi``.  :meth:`set_multiplier` closes the current
    regime at its next window boundary and anchors a new one there;
    closed regimes are kept so queries about earlier times still answer
    with the cadence that was in force then.
    """

    def __init__(self, timing: DramTiming, phase: int = 0) -> None:
        self._base_refi = timing.refresh_interval
        self.t_refi = self._base_refi
        self.t_rfc = timing.t_rfc
        if self.t_refi <= self.t_rfc:
            raise ValueError(
                f"refresh interval {self.t_refi} must exceed blackout {self.t_rfc}"
            )
        self.multiplier = 1
        # Closed regimes: (start, t_refi, start_epoch, blackout_before, end).
        self._history: List[Tuple[int, int, int, int, int]] = []
        # Current regime: windows start at _anchor + k * t_refi, numbered
        # from _anchor_epoch, with _anchor_blackout blackout cycles accrued
        # before _anchor.  (Set via the phase property below.)
        self.phase = phase % self.t_refi

    @property
    def phase(self) -> int:
        return self._phase

    @phase.setter
    def phase(self, value: int) -> None:
        """Re-stagger the schedule; only legal before any rate change.

        Kept as an assignable attribute for parity with the original
        single-regime model, where tests (and rank construction) set the
        stagger after building the schedule.
        """
        if self._history or self.multiplier != 1:
            raise ValueError(
                "cannot re-phase a schedule after a refresh-rate change"
            )
        self._phase = value
        self._anchor = value
        self._anchor_epoch = 0
        self._anchor_blackout = 0

    # ------------------------------------------------------------------
    # Rate control
    # ------------------------------------------------------------------
    def set_multiplier(self, multiplier: int, now: int) -> None:
        """Switch to ``base_interval / multiplier`` refresh cadence.

        Takes effect at the first window boundary strictly after ``now``
        (a mid-window switch would retroactively rewrite the blackout
        the bank may already have planned around).  Idempotent for the
        current multiplier; both escalation and de-escalation are
        allowed, but the resulting interval must still exceed tRFC.
        """
        if multiplier < 1:
            raise ValueError(f"refresh multiplier must be >= 1, got {multiplier}")
        if multiplier == self.multiplier:
            return
        new_refi = self._base_refi // multiplier
        if new_refi <= self.t_rfc:
            raise ValueError(
                f"refresh interval {new_refi} at {multiplier}x must exceed "
                f"blackout {self.t_rfc}"
            )
        if now < self._anchor:
            # A previous rate change is still pending (its regime anchors
            # in the future).  No window of it has elapsed, so it can be
            # retargeted in place: the old cadence keeps running until the
            # already-recorded boundary, then the newest rate takes over.
            self.t_refi = new_refi
            self.multiplier = multiplier
            return
        windows = (now - self._anchor) // self.t_refi + 1
        boundary = self._anchor + windows * self.t_refi
        boundary_epoch = self._anchor_epoch + windows
        boundary_blackout = self.blackout_cycles_until(boundary)
        self._history.append(
            (self._anchor, self.t_refi, self._anchor_epoch,
             self._anchor_blackout, boundary)
        )
        self._anchor = boundary
        self._anchor_epoch = boundary_epoch
        self._anchor_blackout = boundary_blackout
        self.t_refi = new_refi
        self.multiplier = multiplier

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def epoch(self, time: int) -> int:
        """Which refresh window ``time`` falls in (monotone in time)."""
        if time >= self._anchor:
            return self._anchor_epoch + (time - self._anchor) // self.t_refi
        if time < self.phase:
            return -1
        for start, refi, epoch0, _, end in reversed(self._history):
            if time >= start:
                return epoch0 + (time - start) // refi
        return -1  # pragma: no cover - unreachable (phase == first start)

    def earliest_available(self, time: int) -> int:
        """Earliest cycle >= ``time`` that is outside a blackout window."""
        if time >= self._anchor:
            # Fast path: the current regime is open-ended, so a push to
            # the end of its blackout is final.
            offset = (time - self._anchor) % self.t_refi
            if offset < self.t_rfc:
                return time + (self.t_rfc - offset)
            return time
        # Historical times: the push out of one regime's blackout can
        # land exactly on the next regime's opening blackout; iterate
        # until stable (at most len(history)+1 rounds).
        while True:
            candidate = self._available_once(time)
            if candidate == time:
                return time
            time = candidate

    def _available_once(self, time: int) -> int:
        if time >= self._anchor:
            offset = (time - self._anchor) % self.t_refi
            if offset < self.t_rfc:
                return time + (self.t_rfc - offset)
            return time
        if time < self.phase:
            return time
        for start, refi, _, _, end in reversed(self._history):
            if time >= start:
                offset = (time - start) % refi
                if offset < self.t_rfc:
                    return time + (self.t_rfc - offset)
                return time
        return time  # pragma: no cover - unreachable

    def blackout_cycles_until(self, time: int) -> int:
        """Total blackout cycles in [0, time) — used for utilisation stats."""
        if time >= self._anchor:
            span = time - self._anchor
            full_windows = span // self.t_refi
            tail = min(span % self.t_refi, self.t_rfc)
            return self._anchor_blackout + full_windows * self.t_rfc + tail
        if time <= self.phase:
            return 0
        for start, refi, _, blackout0, end in reversed(self._history):
            if time >= start:
                span = time - start
                full_windows = span // refi
                tail = min(span % refi, self.t_rfc)
                return blackout0 + full_windows * self.t_rfc + tail
        return 0  # pragma: no cover - unreachable
