"""Dynamic MSHR capacity tuning (Section 5.1).

Large MSHRs usually help, but on some mixes (the paper's HM2/M2) the
extra outstanding misses churn the shared L2 and *hurt*.  The paper's fix
is a sampling tuner: each MSHR can run at 1x, 1/2x or 1/4x of its
maximum size; a brief training phase runs each setting, records committed
micro-ops, then locks in the best setting until the next sampling period
(the same train-then-commit pattern as pipeline balancing / dynamic
datapath resizing, refs [4, 31]).
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from ..engine.simulator import Engine
from .base import MshrFile

#: The three capacity settings the paper allows.
CAPACITY_FRACTIONS: Sequence[float] = (1.0, 0.5, 0.25)


class DynamicMshrTuner:
    """Sampling-based capacity controller over one or more MSHR banks.

    Args:
        engine: simulation engine (for scheduling phases).
        files: every MSHR bank under control; all are resized together.
        committed_reader: returns total committed micro-ops across cores.
        sample_cycles: length of each training sample.
        epoch_cycles: length of the committed phase between trainings.
    """

    __slots__ = (
        "engine", "files", "committed_reader", "sample_cycles", "epoch_cycles",
        "_limits", "_sample_scores", "_sample_index", "_sample_start_committed",
        "chosen_limit", "trainings", "selections", "_started",
    )

    def __init__(
        self,
        engine: Engine,
        files: Sequence[MshrFile],
        committed_reader: Callable[[], float],
        sample_cycles: int = 50_000,
        epoch_cycles: int = 400_000,
    ) -> None:
        if not files:
            raise ValueError("tuner needs at least one MSHR file")
        if sample_cycles < 1 or epoch_cycles < 1:
            raise ValueError("phase lengths must be positive")
        self.engine = engine
        self.files = list(files)
        self.committed_reader = committed_reader
        self.sample_cycles = sample_cycles
        self.epoch_cycles = epoch_cycles
        self._limits = self._candidate_limits(self.files[0].capacity)
        self._sample_scores: List[float] = []
        self._sample_index = 0
        self._sample_start_committed = 0.0
        self.chosen_limit = self.files[0].capacity
        self.trainings = 0
        self.selections: List[int] = []
        self._started = False

    @staticmethod
    def _candidate_limits(capacity: int) -> List[int]:
        limits = []
        for fraction in CAPACITY_FRACTIONS:
            limit = max(1, int(round(capacity * fraction)))
            if limit not in limits:
                limits.append(limit)
        return limits

    def start(self) -> None:
        """Begin the first training phase (idempotent)."""
        if self._started:
            return
        self._started = True
        self._begin_training()

    # -- training state machine ----------------------------------------
    def _begin_training(self) -> None:
        self.trainings += 1
        self._sample_scores = []
        self._sample_index = 0
        self._begin_sample()

    def _begin_sample(self) -> None:
        limit = self._limits[self._sample_index]
        self._apply_limit(limit)
        self._sample_start_committed = self.committed_reader()
        self.engine.schedule(self.sample_cycles, self._end_sample)

    def _end_sample(self) -> None:
        progress = self.committed_reader() - self._sample_start_committed
        self._sample_scores.append(progress)
        self._sample_index += 1
        if self._sample_index < len(self._limits):
            self._begin_sample()
            return
        # Training done: fix the best-performing setting for the epoch.
        best = max(range(len(self._limits)), key=lambda i: self._sample_scores[i])
        self.chosen_limit = self._limits[best]
        self.selections.append(self.chosen_limit)
        self._apply_limit(self.chosen_limit)
        self.engine.schedule(self.epoch_cycles, self._begin_training)

    def _apply_limit(self, limit: int) -> None:
        for file in self.files:
            file.set_capacity_limit(min(limit, file.capacity))

