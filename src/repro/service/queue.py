"""Durable job queue for the sweep service: a directory of cell journals.

A job is one :class:`~repro.experiments.persistence.CellJournal` file,
``<directory>/<job_id>.jsonl``, written and replayed by that class and
nothing else: its header's signature is the submitted
:class:`~repro.experiments.spec.SweepSpec`, and each cell's fate is a
``result`` record (from a simulation, or ``attempts == 0`` when the
result cache served it) or a ``failure`` record.  The header is fsync'd before a submission is
acknowledged, so a service killed at any instant rescans the directory
and knows exactly which cells of which jobs remain — in-flight sweeps
survive process death.

A job's state is derived, not journaled: ``completed`` when every cell
has a record, ``queued`` otherwise, ``running`` only in memory while the
executor holds it.

Admission control is enforced here: the queue is bounded by total
*pending cells* (not jobs, so one huge sweep cannot sneak past a job
count), and a submission that would exceed the bound raises
:class:`~repro.common.errors.ServiceOverloadError` instead of accepting
work the service cannot finish.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..common.durable import fsync_dir
from ..common.errors import ServiceOverloadError
from ..experiments.persistence import CellJournal
from ..experiments.spec import SweepSpec
from ..system.config import SystemConfig
from ..workloads.mixes import WorkloadMix

PathLike = Union[str, Path]

#: ``job-<seq>-<fingerprint12>.jsonl``; ``seq`` orders the queue.
_JOB_FILE = re.compile(r"job-(\d+)-[0-9a-f]+\.jsonl")


@dataclass
class SweepJob:
    """One submitted sweep: a view over its cell journal."""

    job_id: str
    spec: SweepSpec
    #: The job's file; read-only except while the executor runs the job.
    journal: CellJournal
    running: bool = False
    #: The file had records but was incomplete when the queue was opened:
    #: a restart interrupted the job (staleness note).
    recovered: bool = False

    def _recorded(self) -> set:
        return self.journal.completed.keys() | self.journal.failed.keys()

    @property
    def state(self) -> str:
        if self.running:
            return "running"
        return "queued" if self.pending_cell_count() else "completed"

    def remaining_cells(self) -> List[Tuple[SystemConfig, WorkloadMix]]:
        recorded = self._recorded()
        return [
            (config, mix)
            for config, mix in self.spec.cells()
            if (config.name, mix.name) not in recorded
        ]

    def pending_cell_count(self) -> int:
        return self.spec.cell_count() - len(self._recorded())

    def progress(self) -> dict:
        completed, attempts = self.journal.completed, self.journal.attempts
        from_cache = sum(1 for cell in completed if attempts[cell] == 0)
        return {
            "state": self.state,
            "cells_total": self.spec.cell_count(),
            "cells_done": len(self._recorded()),
            "cells_failed": len(self.journal.failed),
            "cells_from_cache": from_cache,
            "cells_simulated": len(completed) - from_cache,
            "recovered": self.recovered,
        }


class JobQueue:
    """Crash-durable, bounded queue of sweep jobs: one journal per job."""

    def __init__(self, directory: Path, max_pending_cells: int) -> None:
        self.directory = directory
        #: Jobs in submission (``seq``) order.
        self.jobs: Dict[str, SweepJob] = {}
        self.max_pending_cells = max_pending_cells
        self._seq = 0
        #: Guards ``jobs`` and every job's journal state: HTTP handler
        #: threads read under it while submissions and the executor's
        #: cell records write under it.
        self.lock = threading.Lock()

    @classmethod
    def open(
        cls, directory: PathLike, max_pending_cells: int = 4096
    ) -> "JobQueue":
        """Open (or create) a job directory, replaying every job file.

        Order and ids come from each file's parsed ``seq``, not from a
        filename sort (``job-10000`` sorts before ``job-9999``).  A file
        whose header never completed — a crash mid-submit, before the
        acknowledgement — is not a job and is deleted.  A header this
        build cannot read (e.g. a config field it does not have) raises
        ``ValueError`` naming the file; the file is left in place.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        queue = cls(directory, max_pending_cells)
        files = sorted(
            (int(match.group(1)), path)
            for path in directory.iterdir()
            if (match := _JOB_FILE.fullmatch(path.name))
        )
        for seq, path in files:
            journal = CellJournal.read(path)
            if journal.signature is None:
                path.unlink()
                continue
            try:
                spec = SweepSpec.from_dict(journal.signature)
            except ValueError as exc:
                raise ValueError(f"job file {path}: {exc}") from exc
            job = SweepJob(path.stem, spec, journal)
            job.recovered = (
                0 < job.pending_cell_count() < job.spec.cell_count()
            )
            queue.jobs[job.job_id] = job
            queue._seq = seq
        return queue

    def pending_cell_count(self) -> int:
        """Cells not yet recorded, over every job (call under ``lock``)."""
        return sum(job.pending_cell_count() for job in self.jobs.values())

    def submit(self, spec: SweepSpec) -> str:
        """Durably enqueue a sweep; raises ``ServiceOverloadError`` when full."""
        with self.lock:
            pending = self.pending_cell_count()
            if pending + spec.cell_count() > self.max_pending_cells:
                raise ServiceOverloadError(
                    f"queue full: {pending} cells pending, adding "
                    f"{spec.cell_count()} would exceed the "
                    f"{self.max_pending_cells}-cell admission bound"
                )
            job_id = f"job-{self._seq + 1:04d}-{spec.fingerprint()}"
            journal = CellJournal.open(
                self.directory / f"{job_id}.jsonl", spec.signature()
            )
            journal.close()
            # The new file's directory entry is durable before the ack.
            fsync_dir(self.directory)
            self._seq += 1
            self.jobs[job_id] = SweepJob(job_id, spec, journal)
            return job_id

    def next_queued(self) -> Optional[SweepJob]:
        with self.lock:
            for job in self.jobs.values():
                if job.state == "queued":
                    return job
        return None


__all__ = ["JobQueue", "SweepJob"]
