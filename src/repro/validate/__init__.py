"""Runtime correctness harness for the simulator.

Three legs, all opt-in and zero-overhead when disabled:

* **Protocol checkers** (:mod:`~repro.validate.dram_timing`,
  :mod:`~repro.validate.mshr_check`, :mod:`~repro.validate.queue_check`)
  hook the seams of a wired machine — every DRAM bank access, every MSHR
  operation, every memory-controller accept/issue/retire — and raise
  :class:`~repro.common.errors.CheckViolation` the moment a timing or
  conservation invariant breaks.  Enable them with
  ``Machine(..., checkers="all")`` or the ``--check`` CLI flag.

* **Differential harness** (:mod:`~repro.validate.diff`,
  ``python -m repro validate``) runs the same workload twice — under two
  DRAM timing presets, or interrupted and resumed from a snapshot —
  records full per-bank command transcripts, and reports the first
  divergence with cycle, command, and bank-state dump.

* **Property strategies** (``tests/strategies.py``) provide seeded
  random request streams, address patterns, and timing mutations that
  both the checkers' own tests and subsystem tests reuse.

See ``docs/validation.md`` for semantics and recipes.
"""

from __future__ import annotations

from ..common.errors import CheckViolation
from .base import Checker, CheckerSet
from .diff import (
    DiffReport,
    TracedRun,
    diff_resume,
    diff_runs,
    diff_timing_presets,
    filter_run,
    run_traced,
)
from .dram_timing import DramTimingChecker, ShadowBank
from .hooks import CHECKER_NAMES, attach_checkers, instrument_banks, resolve_checker_names
from .mshr_check import MshrConservationChecker
from .queue_check import QueueConservationChecker
from .transcript import CommandRecord, TranscriptRecorder

__all__ = [
    "CHECKER_NAMES",
    "Checker",
    "CheckerSet",
    "CheckViolation",
    "CommandRecord",
    "DiffReport",
    "DramTimingChecker",
    "MshrConservationChecker",
    "QueueConservationChecker",
    "ShadowBank",
    "TracedRun",
    "TranscriptRecorder",
    "attach_checkers",
    "diff_resume",
    "diff_runs",
    "diff_timing_presets",
    "filter_run",
    "instrument_banks",
    "resolve_checker_names",
    "run_traced",
]
