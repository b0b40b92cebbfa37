"""DRAM timing-legality checker.

The bank model is analytic — it keeps *ready times* instead of issuing
explicit ACT/RD/WR/PRE commands — so timing legality is checked by
replay: every instrumented bank gets a :class:`ShadowBank` built from
the *reference* :class:`~repro.dram.timing.DramTiming` (the timing the
machine was configured with), fed the exact same ``(start, row,
is_write)`` stream.  The shadow computes the earliest protocol-legal
completion time for each access; a real bank that answers earlier has
violated one of the tRCD/tCAS/tRP/tRAS/tWR/tCCD/tRRD/tFAW orderings or
a refresh blackout window, and the checker raises
:class:`~repro.common.errors.CheckViolation` naming the constraint.

Because the shadow *is* a :class:`~repro.dram.bank.Bank` (same row
buffer cache, same refresh schedule and phase, same per-rank activation
window), a healthy simulation matches it cycle-exactly; any mismatch at
all — faster (illegal), slower, or a row-hit flag flip — is reported as
a model divergence with a bank-state dump.

From Loh's Table 1: the 2D/stacked-commodity parts run tRCD = tCAS =
tWR = tRP = 12 ns with tRAS = 36 ns, and the true-3D split arrays run
8.1 ns / 24.3 ns.  These are the orderings every perf PR must preserve;
the command transcripts behind Figures 4-9 are only comparable to the
paper while they hold.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..common.errors import CheckViolation
from ..dram.activation import ActivationWindow
from ..dram.bank import Bank
from ..dram.refresh import RefreshSchedule
from ..dram.timing import DramTiming
from .base import Checker


class ShadowBank:
    """Reference replay of one bank under a known-good timing.

    ``observe`` replays each access on the internal reference bank and
    compares outcomes.  The shadow advances on its *own* outputs, never
    the observed ones, so a corrupted bank cannot drag the reference
    trajectory along with it — every subsequent divergence is measured
    against the legal timeline.
    """

    __slots__ = (
        "timing", "label", "_bank", "_dirty_evictions", "_prev_act",
        "_prev_col", "_prev_data", "accesses",
    )

    def __init__(
        self,
        timing: DramTiming,
        refresh_phase: int = 0,
        row_buffer_entries: int = 1,
        activations: Optional[ActivationWindow] = None,
        label: str = "bank",
    ) -> None:
        self.timing = timing
        self.label = label
        self._bank = Bank(
            timing,
            RefreshSchedule(timing, phase=refresh_phase),
            row_buffer_entries=row_buffer_entries,
            name=f"shadow.{label}",
            activations=activations,
        )
        self._dirty_evictions = self._bank.stats.counter("dirty_evictions")
        # Reconstructed command history for constraint naming.
        self._prev_act: Optional[int] = None
        self._prev_col: Optional[int] = None
        self._prev_data: Optional[int] = None
        self.accesses = 0

    def observe(
        self, start: int, row: int, is_write: bool, data_time: int, hit: bool
    ) -> None:
        """Replay one access; raise on any divergence from the reference."""
        dirty_before = self._dirty_evictions.value
        expected_data, expected_hit = self._bank.access(start, row, is_write)
        dirty_evicted = self._dirty_evictions.value > dirty_before
        self.accesses += 1
        if data_time == expected_data and hit == expected_hit:
            self._note_commands(expected_data, expected_hit)
            return
        raise self._diagnose(
            start, row, is_write, data_time, hit,
            expected_data, expected_hit, dirty_evicted,
        )

    def observe_functional(self, row: int, is_write: bool) -> None:
        """Replay a functional-warmup row touch on the reference bank.

        Sampled simulation moves open-row state through
        :meth:`~repro.dram.bank.Bank.functional_touch` without timing;
        the shadow must make the same transition or the next detailed
        access diverges on the hit flag.
        """
        self._bank.functional_touch(row, is_write)

    # ------------------------------------------------------------------
    def _note_commands(self, data_time: int, hit: bool) -> None:
        timing = self.timing
        if hit:
            self._prev_col = data_time - timing.t_cas
        else:
            act = data_time - timing.t_rcd - timing.t_cas
            self._prev_act = act
            self._prev_col = act + timing.t_rcd
        self._prev_data = data_time

    def _diagnose(
        self,
        start: int,
        row: int,
        is_write: bool,
        data_time: int,
        hit: bool,
        expected_data: int,
        expected_hit: bool,
        dirty_evicted: bool,
    ) -> CheckViolation:
        """Name the most specific constraint the observed access broke."""
        timing = self.timing
        constraint = None
        if hit != expected_hit:
            constraint = "row-buffer state (hit flag diverged from reference)"
        elif data_time > expected_data:
            constraint = "model equality (slower than the reference timing)"
        elif data_time < start + timing.t_cas:
            constraint = "tCAS (data before column access could complete)"
        elif not expected_hit:
            act = data_time - timing.t_rcd - timing.t_cas
            if act < start:
                constraint = "tRCD+tCAS (ACT implied before the request)"
            elif self._prev_act is not None and act < self._prev_act + timing.t_rc:
                constraint = "tRC = tRAS+tRP (same-bank ACT-to-ACT too close)"
            elif dirty_evicted:
                constraint = "tWR (write recovery skipped on dirty eviction)"
            elif self._bank.refresh.earliest_available(act) != act:
                constraint = "refresh blackout (ACT inside a tRFC window)"
            else:
                constraint = "tRRD/tFAW or activation spacing"
        else:
            col = data_time - timing.t_cas
            if self._prev_col is not None and col < self._prev_col + timing.t_ccd:
                constraint = "tCCD (back-to-back column commands too close)"
            elif self._bank.refresh.earliest_available(col) != col:
                constraint = "refresh blackout (column command inside tRFC)"
            else:
                constraint = "column command earlier than legal"
        return CheckViolation(
            f"[dram-timing] {self.label}: access to row {row} "
            f"({'write' if is_write else 'read'}) at start {start} produced "
            f"data at {data_time}, reference timing requires {expected_data} "
            f"(hit={hit}, reference hit={expected_hit})",
            checker="dram-timing",
            cycle=start,
            constraint=constraint,
            state={
                "bank": self.label,
                "open_rows": self._bank.open_rows,
                "prev_act": self._prev_act,
                "prev_col": self._prev_col,
                "prev_data": self._prev_data,
                "refresh_phase": self._bank.refresh.phase,
                "t_params": {
                    "t_rcd": timing.t_rcd,
                    "t_cas": timing.t_cas,
                    "t_rp": timing.t_rp,
                    "t_ras": timing.t_ras,
                    "t_wr": timing.t_wr,
                    "t_ccd": timing.t_ccd,
                },
            },
        )


class DramTimingChecker(Checker):
    """Timing legality across every bank of a machine's memory system."""

    __slots__ = ("_shadows", "_rank_windows")

    name = "dram-timing"

    def __init__(self) -> None:
        self._shadows: Dict[Tuple[int, int, int], ShadowBank] = {}
        self._rank_windows: Dict[Tuple[int, int], ActivationWindow] = {}

    @property
    def accesses_checked(self) -> int:
        return sum(shadow.accesses for shadow in self._shadows.values())

    def register_bank(
        self, mc_id: int, rank_id: int, bank_id: int, bank: Bank
    ) -> ShadowBank:
        """Build the shadow for one real bank (called at attach time).

        The reference timing is captured from the bank *now*, before any
        fault-injection corruption is applied; banks of one rank share a
        shadow activation window exactly as real banks share theirs.
        """
        key = (mc_id, rank_id)
        window = self._rank_windows.get(key)
        if window is None:
            window = ActivationWindow(bank.timing)
            self._rank_windows[key] = window
        shadow = ShadowBank(
            bank.timing,
            refresh_phase=bank.refresh.phase,
            row_buffer_entries=bank.row_buffers.num_entries,
            activations=window,
            label=f"mc{mc_id}.rank{rank_id}.bank{bank_id}",
        )
        self._shadows[(mc_id, rank_id, bank_id)] = shadow
        return shadow

    def on_bank_access(
        self,
        mc_id: int,
        rank_id: int,
        bank_id: int,
        start: int,
        row: int,
        is_write: bool,
        data_time: int,
        hit: bool,
        open_rows: Tuple[int, ...] = (),
    ) -> None:
        self._shadows[(mc_id, rank_id, bank_id)].observe(
            start, row, is_write, data_time, hit
        )

    def on_bank_functional_touch(
        self, mc_id: int, rank_id: int, bank_id: int, row: int, is_write: bool
    ) -> None:
        self._shadows[(mc_id, rank_id, bank_id)].observe_functional(
            row, is_write
        )
