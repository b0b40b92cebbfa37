"""The resilient sweep service: queue + cache + supervisor, composed.

``SweepService`` ties the durable :class:`~repro.service.queue.JobQueue`,
the content-addressed :class:`~repro.service.cache.ResultCache`, and the
:class:`~repro.service.supervisor.WorkerSupervisor` into one facade:

* :meth:`submit` durably enqueues a sweep (journal first, then ack) or
  sheds it with :class:`~repro.common.errors.ServiceOverloadError`;
* :meth:`process` drives queued jobs: each cell is served from the
  verified cache when possible, otherwise dispatched to a supervised
  worker, journaled, and written back to the cache — in that order, so
  a crash between any two steps is recoverable;
* construction replays the queue journal: jobs interrupted mid-run are
  re-queued (flagged ``recovered``) and resume from their journaled
  cells, skipping everything already done;
* :meth:`result` degrades gracefully — it always returns the cells it
  has as a partial :class:`~repro.experiments.runner.ResultTable`, with
  per-cell provenance (cache/simulated/failed/shed/pending) and
  staleness/failure notes instead of refusing the whole sweep.

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
from ..experiments.runner import CellFailure, ResultTable
from ..snapshot import SnapshotPlan
from ..system.machine import MachineResult
from .cache import ResultCache
from .queue import CellOutcome, JobQueue, SweepJob, SweepSpec
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
    #: ``shed`` / ``pending`` / ``lost``.
    provenance: Dict[Tuple[str, str], str]
    #: Human-readable staleness/degradation notes (empty = pristine).
    notes: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.state == "completed" and not self.table.failures and not any(
            source in ("pending", "lost") for source in self.provenance.values()
        )


class SweepService:
    """Durable, supervised, cache-accelerated sweep execution."""

    def __init__(
        self, root: PathLike, policy: Optional[ServicePolicy] = None
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.policy = policy or ServicePolicy()
        self.cache = ResultCache(self.root / "cache")
        self.queue = JobQueue.open(
            self.root / "queue.jsonl",
            max_pending_cells=self.policy.max_pending_cells,
        )
        #: Admission policy: a scenario that keeps failing is shed fast
        #: instead of occupying a worker again on every resubmission.
        self.breaker = CircuitBreaker(
            self.policy.breaker_threshold, self.policy.breaker_cooldown
        )
        self.supervisor = WorkerSupervisor(self.policy, breaker=self.breaker)
        #: In-memory overlay of results by cell key (fast path; the
        #: cache is the durable source of truth).
        self._results: Dict[str, MachineResult] = {}
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
        self.queue.close()

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
                job = self.queue.jobs.get(job_id)
                if job is None:
                    raise KeyError(f"unknown job {job_id!r}")
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
        self.queue.set_state(job.job_id, "running")
        spec = job.spec
        snapshot_dir = None
        if self.policy.snapshot_every is not None:
            snapshot_dir = self.root / "snapshots"
            snapshot_dir.mkdir(parents=True, exist_ok=True)
        tasks: List[CellTask] = []
        for config, mix in job.remaining_cells():
            key = spec.key_for(config, mix)
            cached = self.cache.get(key)  # corrupt → quarantined + miss
            if cached is not None:
                self._results[key] = cached
                self._record(
                    job,
                    CellOutcome(
                        config=config.name, mix=mix.name, key=key,
                        source="cache",
                    ),
                )
                self.stats_counters["cells_from_cache"] += 1
                continue
            snapshot = None
            if snapshot_dir is not None:
                # Keyed by the cell's content hash: a rescheduled or
                # recovered attempt of the same cell finds its
                # checkpoint; a different cell never can.  Workers honor
                # SIGUSR1 preemption.
                snapshot = SnapshotPlan(
                    path=str(snapshot_dir / f"{key}.snap"),
                    every=self.policy.snapshot_every,
                    preemptible=True,
                )
            tasks.append(
                CellTask(
                    config=config,
                    mix_name=mix.name,
                    benchmarks=tuple(mix.benchmarks),
                    key=key,
                    warmup_instructions=spec.scale.warmup_instructions,
                    measure_instructions=spec.scale.measure_instructions,
                    seed=spec.seed,
                    checkers=spec.checkers,
                    sampling=spec.sampling,
                    snapshot=snapshot,
                )
            )

        def on_result(task: CellTask, result) -> None:
            # Cache before journal: once the journal says done, the
            # entry must exist for the assembler/resume to serve.
            self.cache.put(
                task.key, result,
                config_name=task.config.name, mix_name=task.mix_name,
            )
            self._results[task.key] = result
            self._record(
                job,
                CellOutcome(
                    config=task.config.name, mix=task.mix_name,
                    key=task.key, source="sim",
                ),
            )
            self.stats_counters["cells_simulated"] += 1

        def on_failure(task: CellTask, failure: CellFailure) -> None:
            self._record(
                job,
                CellOutcome(
                    config=task.config.name, mix=task.mix_name,
                    key=task.key, source="failure", failure=failure,
                ),
            )
            self.stats_counters["cells_failed"] += 1

        def on_shed(task: CellTask, failure: CellFailure) -> None:
            self._record(
                job,
                CellOutcome(
                    config=task.config.name, mix=task.mix_name,
                    key=task.key, source="shed", failure=failure,
                ),
            )
            self.stats_counters["cells_shed"] += 1

        self.supervisor.run(tasks, on_result, on_failure, on_shed)
        self.queue.set_state(job.job_id, "completed")
        self.stats_counters["jobs_completed"] += 1

    def _record(self, job: SweepJob, outcome: CellOutcome) -> None:
        """Journal a cell outcome, then honor any crash-service fault.

        The crash fires strictly *after* the journal append returns, so
        the acceptance property "resume is bit-identical" is tested at
        the worst possible instant: state durable, ack not yet visible.
        """
        self.queue.record_cell(job.job_id, outcome)
        scenario = (outcome.config, outcome.mix)
        count = self._crash_counts.get(scenario, 0) + 1
        self._crash_counts[scenario] = count
        if faults.fault_for(
            "crash-service", outcome.config, outcome.mix, count
        ):
            raise InjectedServiceCrash(
                f"injected service crash after journaling cell "
                f"({outcome.config}, {outcome.mix})"
            )

    # -- inspection ------------------------------------------------------

    def status(self, job_id: str) -> dict:
        job = self.queue.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        report = job.progress()
        report["job_id"] = job_id
        return report

    def result(self, job_id: str) -> ServiceResult:
        """Assemble the sweep's table — partial if it must be.

        Never raises for degraded jobs: missing, failed, shed, and
        pending cells are annotated in ``provenance`` and ``notes`` so
        callers can decide whether partial data is acceptable.
        """
        job = self.queue.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        spec = job.spec
        cells: Dict[Tuple[str, str], MachineResult] = {}
        failures: Dict[Tuple[str, str], CellFailure] = {}
        provenance: Dict[Tuple[str, str], str] = {}
        notes: List[str] = []
        lost = 0
        for config, mix in spec.cells():
            cell = (config.name, mix.name)
            outcome = job.outcomes.get(cell)
            if outcome is None:
                provenance[cell] = "pending"
                continue
            if not outcome.ok:
                provenance[cell] = (
                    "shed" if outcome.source == "shed" else "failed"
                )
                if outcome.failure is not None:
                    failures[cell] = outcome.failure
                continue
            result = self._results.get(outcome.key)
            if result is None:
                result = self.cache.get(outcome.key)
            if result is None:
                # Journal says done but the entry is gone or failed its
                # checksum since (it is quarantined now): degrade, don't
                # serve garbage.
                provenance[cell] = "lost"
                lost += 1
                failures[cell] = CellFailure(
                    config=cell[0], mix=cell[1],
                    error_type="CacheEntryLost",
                    message=(
                        "journaled result's cache entry is missing or "
                        "quarantined; resubmit the sweep to recompute"
                    ),
                    traceback="", attempts=0, elapsed=0.0,
                )
                continue
            cells[cell] = result
            provenance[cell] = (
                "cache" if outcome.source == "cache" else "simulated"
            )

        pending = sum(1 for s in provenance.values() if s == "pending")
        if pending:
            notes.append(
                f"{pending} cell(s) not yet run (job state: {job.state})"
            )
        if failures:
            named = sorted(f"{c}/{m}" for c, m in failures)
            notes.append(
                f"{len(failures)} cell(s) unavailable: {', '.join(named)}"
            )
        if lost:
            notes.append(
                f"{lost} cell(s) lost to cache corruption after completion; "
                "resubmit to recompute"
            )
        if job.recovered:
            notes.append(
                "job was interrupted by a service restart and resumed from "
                "its journal"
            )
        return ServiceResult(
            job_id=job_id,
            state=job.state,
            table=ResultTable(
                configs=[c.name for c in spec.configs],
                mixes=[m.name for m in spec.mixes],
                cells=cells,
                failures=failures,
            ),
            provenance=provenance,
            notes=notes,
        )

    def stats(self) -> dict:
        return {
            "service": dict(self.stats_counters),
            "cache": dict(self.cache.stats),
            "supervisor": dict(self.supervisor.stats),
            "breaker": self.breaker.snapshot(),
            "queue": {
                "jobs": len(self.queue.jobs),
                "pending_cells": self.queue.pending_cell_count(),
                "max_pending_cells": self.queue.max_pending_cells,
            },
        }


__all__ = ["ServiceResult", "SweepService"]
