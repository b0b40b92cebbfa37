"""Resilient sweep service.

A long-running front end over :mod:`repro.experiments`: sweeps are
submitted as jobs to a durable queue — a directory holding one fsync'd
:class:`~repro.experiments.persistence.CellJournal` per job — cells are
memoized across jobs in a content-addressed, corruption-detecting
result cache, simulations run on heartbeat-supervised worker processes behind
per-scenario circuit breakers, and a stdlib HTTP/JSON interface
(``repro serve``) exposes submit/status/result.  The chaos hooks in
:mod:`repro.experiments.faults` plus :mod:`repro.service.chaos` verify
the whole stack end to end: killed workers, corrupted cache entries,
stalled heartbeats, and a crash-and-restarted service must all converge
to bit-identical sweep results.
"""

from .cache import ResultCache
from .queue import JobQueue, SweepJob
from .service import ServiceResult, SweepService
from .supervisor import CellTask, CircuitBreaker, ServicePolicy, WorkerSupervisor

__all__ = [
    "CellTask",
    "CircuitBreaker",
    "JobQueue",
    "ResultCache",
    "ServicePolicy",
    "ServiceResult",
    "SweepJob",
    "SweepService",
    "WorkerSupervisor",
]
