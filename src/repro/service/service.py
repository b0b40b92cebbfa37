"""The resilient sweep service: queue + cache + supervisor, composed.

``SweepService`` ties the durable :class:`~repro.service.queue.JobQueue`,
the content-addressed :class:`~repro.service.cache.ResultCache`, and the
:class:`~repro.service.supervisor.WorkerSupervisor` into one facade:

* :meth:`submit` durably enqueues a sweep (journal first, then ack) or
  sheds it with :class:`~repro.common.errors.ServiceOverloadError`;
* :meth:`process` drives queued jobs: each cell is served from the
  verified cache when possible, otherwise dispatched to a supervised
  worker, written to the cache, then recorded in the job's journal — in
  that order, so a crash between any two steps is recoverable;
* construction rescans the job directory: jobs interrupted mid-run
  (flagged ``recovered``) resume from their journaled cells, skipping
  everything already done;
* :meth:`result` reads the job's journal and degrades gracefully — it
  always returns the cells it has as a partial
  :class:`~repro.experiments.runner.ResultTable`, with per-cell
  provenance (cache/simulated/failed/shed/pending) and staleness/failure
  notes instead of refusing the whole sweep.  The cache is only a memo
  *across* jobs.

The ``crash-service`` chaos fault raises
:class:`~repro.common.errors.InjectedServiceCrash` *after* the matching
cell is journaled: the recovery path above must make a killed-and-
restarted service finish with bit-identical results.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..common.errors import InjectedServiceCrash
from ..experiments import faults
from ..experiments.persistence import CellJournal
from ..experiments.runner import CellFailure, ResultTable
from ..experiments.spec import SweepSpec
from .cache import ResultCache
from .queue import JobQueue, SweepJob
from .supervisor import (
    CellTask,
    CircuitBreaker,
    ServicePolicy,
    WorkerSupervisor,
)

PathLike = Union[str, Path]


@dataclass
class ServiceResult:
    """A (possibly partial) sweep result with provenance annotations."""

    job_id: str
    state: str
    table: ResultTable
    #: Per-cell provenance: ``cache`` / ``simulated`` / ``failed`` /
    #: ``shed`` / ``pending``.
    provenance: Dict[Tuple[str, str], str]
    #: Human-readable staleness/degradation notes (empty = pristine).
    notes: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.state == "completed" and not self.table.failures


class SweepService:
    """Durable, supervised, cache-accelerated sweep execution."""

    def __init__(
        self, root: PathLike, policy: Optional[ServicePolicy] = None
    ) -> None:
        self.root = Path(root)
        legacy = self.root / "queue.jsonl"
        if legacy.exists():
            raise ValueError(
                f"{legacy} is a job queue from an older service-root "
                "layout; older service roots are not migrated — finish "
                "its jobs with the release that wrote it, or start the "
                "service on a new root"
            )
        self.policy = policy or ServicePolicy()
        self.cache = ResultCache(self.root / "cache")
        self.queue = JobQueue.open(
            self.root / "jobs",
            max_pending_cells=self.policy.max_pending_cells,
        )
        #: Admission policy: a scenario that keeps failing is shed fast
        #: instead of occupying a worker again on every resubmission.
        self.breaker = CircuitBreaker(
            self.policy.breaker_threshold, self.policy.breaker_cooldown
        )
        self.supervisor = WorkerSupervisor(self.policy, breaker=self.breaker)
        self._crash_counts: Dict[Tuple[str, str], int] = {}
        self.stats_counters: Dict[str, int] = {
            "jobs_submitted": 0,
            "jobs_completed": 0,
            "cells_from_cache": 0,
            "cells_simulated": 0,
            "cells_failed": 0,
            "cells_shed": 0,
        }
        #: Set on submit; the HTTP executor thread waits on it.
        self.wakeup = threading.Event()

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        self.supervisor.shutdown()

    def __enter__(self) -> "SweepService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission ------------------------------------------------------

    def submit(self, spec: SweepSpec) -> str:
        """Durably accept a sweep; raises ``ServiceOverloadError`` when full."""
        job_id = self.queue.submit(spec)
        self.stats_counters["jobs_submitted"] += 1
        self.wakeup.set()
        return job_id

    # -- execution -------------------------------------------------------

    def process(self, job_id: Optional[str] = None) -> List[str]:
        """Run queued jobs to completion (synchronously); returns their ids.

        With ``job_id`` only that job is run; otherwise jobs drain in
        submission order.  Recovered jobs resume from their journaled
        cells.
        """
        finished: List[str] = []
        while True:
            if job_id is not None:
                job = self._job(job_id)
                if job.state != "queued":
                    return finished
            else:
                job = self.queue.next_queued()
                if job is None:
                    return finished
            self._execute(job)
            finished.append(job.job_id)
            if job_id is not None:
                return finished

    def _execute(self, job: SweepJob) -> None:
        # Resuming truncates a torn final record left by a crash.
        journal = CellJournal.open(
            job.journal.path, job.spec.signature(), resume=True
        )
        with self.queue.lock:
            job.journal, job.running = journal, True
        try:
            self._run_cells(job)
        finally:
            journal.close()
        with self.queue.lock:
            job.running = False
        self.stats_counters["jobs_completed"] += 1

    def _run_cells(self, job: SweepJob) -> None:
        snapshot_dir = None
        if self.policy.snapshot_every is not None:
            snapshot_dir = self.root / "snapshots"
        tasks: List[CellTask] = []
        for task in job.spec.tasks(
            job.remaining_cells(), snapshot_dir, self.policy.snapshot_every
        ):
            cached = self.cache.get(task.key)  # corrupt → quarantined + miss
            if cached is None:
                tasks.append(task)
                continue
            # attempts=0: no simulation was attempted for this job.
            self._record(job, *task.scenario(), cached, attempts=0)
            self.stats_counters["cells_from_cache"] += 1

        def on_result(task: CellTask, result) -> None:
            # Cache before journal: a crash between the two re-runs the
            # cell, and the cache absorbs the cost.
            self.cache.put(
                task.key, result,
                config_name=task.config.name, mix_name=task.mix_name,
            )
            self._record(
                job, task.config.name, task.mix_name, result, task.attempt
            )
            self.stats_counters["cells_simulated"] += 1

        def on_failure(task: CellTask, failure: CellFailure) -> None:
            self._record(job, task.config.name, task.mix_name, failure)
            self.stats_counters["cells_failed"] += 1

        def on_shed(task: CellTask, failure: CellFailure) -> None:
            self._record(job, task.config.name, task.mix_name, failure)
            self.stats_counters["cells_shed"] += 1

        self.supervisor.run(tasks, on_result, on_failure, on_shed)

    def _record(
        self, job: SweepJob, config: str, mix: str, outcome, attempts: int = 0
    ) -> None:
        """Journal a cell's ``MachineResult`` or ``CellFailure``, then
        honor any crash-service fault.

        The crash fires strictly *after* the journal append returns, so
        the acceptance property "resume is bit-identical" is tested at
        the worst possible instant: state durable, ack not yet visible.
        """
        with self.queue.lock:
            if isinstance(outcome, CellFailure):
                job.journal.record_failure(outcome)
            else:
                job.journal.record_result(config, mix, outcome, attempts)
        count = self._crash_counts.get((config, mix), 0) + 1
        self._crash_counts[(config, mix)] = count
        if faults.fault_for("crash-service", config, mix, count):
            raise InjectedServiceCrash(
                f"injected service crash after journaling cell "
                f"({config}, {mix})"
            )

    # -- inspection ------------------------------------------------------

    def _job(self, job_id: str) -> SweepJob:
        job = self.queue.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job

    def status(self, job_id: str) -> dict:
        with self.queue.lock:
            return dict(self._job(job_id).progress(), job_id=job_id)

    def statuses(self) -> List[dict]:
        """Every job's :meth:`status`, as one consistent snapshot."""
        with self.queue.lock:
            return [
                dict(job.progress(), job_id=job.job_id)
                for job in self.queue.jobs.values()
            ]

    def result(self, job_id: str) -> ServiceResult:
        """Assemble the sweep's table from its journal — partial if need be.

        Never raises for degraded jobs: failed, shed, and pending cells
        are annotated in ``provenance`` and ``notes`` so callers can
        decide whether partial data is acceptable.
        """
        with self.queue.lock:
            job = self._job(job_id)
            state, journal = job.state, job.journal
            completed, failed = dict(journal.completed), dict(journal.failed)
            attempts = dict(journal.attempts)
        spec = job.spec
        provenance: Dict[Tuple[str, str], str] = {}
        for config, mix in spec.cells():
            cell = (config.name, mix.name)
            if cell in completed:
                cached = attempts[cell] == 0
                provenance[cell] = "cache" if cached else "simulated"
            elif cell in failed:
                shed = failed[cell].error_type == "CircuitOpen"
                provenance[cell] = "shed" if shed else "failed"
            else:
                provenance[cell] = "pending"

        notes: List[str] = []
        pending = sum(1 for s in provenance.values() if s == "pending")
        if pending:
            notes.append(f"{pending} cell(s) not yet run (job state: {state})")
        if failed:
            named = sorted(f"{c}/{m}" for c, m in failed)
            notes.append(
                f"{len(failed)} cell(s) unavailable: {', '.join(named)}"
            )
        if job.recovered:
            notes.append(
                "job was interrupted by a service restart and resumed from "
                "its journal"
            )
        return ServiceResult(
            job_id=job_id,
            state=state,
            table=ResultTable(
                configs=[c.name for c in spec.configs],
                mixes=[m.name for m in spec.mixes],
                cells=completed,
                failures=failed,
            ),
            provenance=provenance,
            notes=notes,
        )

    def stats(self) -> dict:
        with self.queue.lock:
            queue = {
                "jobs": len(self.queue.jobs),
                "pending_cells": self.queue.pending_cell_count(),
                "max_pending_cells": self.queue.max_pending_cells,
            }
        return {
            "service": dict(self.stats_counters),
            "cache": dict(self.cache.stats),
            "supervisor": dict(self.supervisor.stats),
            "breaker": self.breaker.snapshot(),
            "queue": queue,
        }


__all__ = ["ServiceResult", "SweepService"]
