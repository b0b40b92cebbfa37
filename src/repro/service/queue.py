"""Durable job queue for the sweep service.

Every state transition — a sweep submitted, a cell finished (from cache
or simulation), a job completing — is appended to one fsync'd JSONL
journal before it is acknowledged, reusing the append/replay machinery
of :mod:`repro.experiments.persistence` (``append_jsonl``/
``open_jsonl``).  A service killed at any instant reopens the journal,
replays it (tolerating and truncating a torn final record), and knows
exactly which cells of which jobs remain — in-flight sweeps survive
process death.

Admission control is enforced here: the queue is bounded by total
*pending cells* (not jobs, so one huge sweep cannot sneak past a job
count), and a submission that would exceed the bound raises
:class:`~repro.common.errors.ServiceOverloadError` instead of accepting
work the service cannot finish.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..common.errors import ServiceOverloadError
from ..experiments.persistence import (
    _failure_from_dict,
    _failure_to_dict,
    append_jsonl,
    open_jsonl,
)
from ..experiments.runner import CellFailure
from ..system.config import SystemConfig
from ..system.scale import ExperimentScale
from ..workloads.mixes import WorkloadMix
from .keys import (
    cell_key,
    cell_payload,
    config_from_dict,
    config_to_dict,
    scale_from_dict,
    scale_to_dict,
    sweep_fingerprint,
)

PathLike = Union[str, Path]

_QUEUE_VERSION = 1

#: Job lifecycle.  ``queued`` → ``running`` → ``completed``; a service
#: restart moves interrupted ``running`` jobs back to ``queued``.
JOB_STATES = ("queued", "running", "completed")


@dataclass(frozen=True)
class SweepSpec:
    """One submitted sweep: the full run_matrix argument set, serializable."""

    configs: Tuple[SystemConfig, ...]
    mixes: Tuple[WorkloadMix, ...]
    scale: ExperimentScale
    seed: int = 42
    checkers: Optional[str] = None
    sampling: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "configs", tuple(self.configs))
        object.__setattr__(self, "mixes", tuple(self.mixes))
        config_names = [c.name for c in self.configs]
        if len(set(config_names)) != len(config_names):
            raise ValueError(f"duplicate config names in sweep: {config_names}")
        mix_names = [m.name for m in self.mixes]
        if len(set(mix_names)) != len(mix_names):
            raise ValueError(f"duplicate mix names in sweep: {mix_names}")
        if not self.configs or not self.mixes:
            raise ValueError("a sweep needs at least one config and one mix")

    def cells(self) -> Iterator[Tuple[SystemConfig, WorkloadMix]]:
        for config in self.configs:
            for mix in self.mixes:
                yield config, mix

    def cell_count(self) -> int:
        return len(self.configs) * len(self.mixes)

    def key_for(self, config: SystemConfig, mix: WorkloadMix) -> str:
        return cell_key(
            config, mix.name, mix.benchmarks, self.scale, self.seed,
            checkers=self.checkers, sampling=self.sampling,
        )

    def fingerprint(self) -> str:
        """Content fingerprint of the whole sweep (job naming/dedup)."""
        return sweep_fingerprint(
            cell_payload(
                config, mix.name, mix.benchmarks, self.scale, self.seed,
                checkers=self.checkers, sampling=self.sampling,
            )
            for config, mix in self.cells()
        )

    def to_dict(self) -> dict:
        return {
            "configs": [config_to_dict(c) for c in self.configs],
            "mixes": [dataclasses.asdict(m) for m in self.mixes],
            "scale": scale_to_dict(self.scale),
            "seed": self.seed,
            "checkers": self.checkers,
            "sampling": self.sampling,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        return cls(
            configs=tuple(config_from_dict(c) for c in data["configs"]),
            mixes=tuple(
                WorkloadMix(
                    name=m["name"],
                    group=m["group"],
                    benchmarks=tuple(m["benchmarks"]),
                    paper_hmipc=m["paper_hmipc"],
                )
                for m in data["mixes"]
            ),
            scale=scale_from_dict(data["scale"]),
            seed=data["seed"],
            checkers=data.get("checkers"),
            sampling=data.get("sampling"),
        )


@dataclass
class CellOutcome:
    """The journaled fate of one cell of one job."""

    config: str
    mix: str
    key: str
    #: ``cache`` (served from the result cache), ``sim`` (freshly
    #: simulated), ``failure`` (all retries exhausted), or ``shed``
    #: (skipped by an open circuit breaker).
    source: str
    failure: Optional[CellFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None and self.source in ("cache", "sim")


@dataclass
class SweepJob:
    """One submitted sweep and its journal-backed progress."""

    job_id: str
    spec: SweepSpec
    state: str = "queued"
    outcomes: Dict[Tuple[str, str], CellOutcome] = field(default_factory=dict)
    #: Set when a restart interrupted this job mid-run (staleness note).
    recovered: bool = False

    def remaining_cells(self) -> List[Tuple[SystemConfig, WorkloadMix]]:
        return [
            (config, mix)
            for config, mix in self.spec.cells()
            if (config.name, mix.name) not in self.outcomes
        ]

    def pending_cell_count(self) -> int:
        if self.state == "completed":
            return 0
        return self.spec.cell_count() - len(self.outcomes)

    def progress(self) -> dict:
        done = len(self.outcomes)
        failed = sum(1 for o in self.outcomes.values() if not o.ok)
        return {
            "state": self.state,
            "cells_total": self.spec.cell_count(),
            "cells_done": done,
            "cells_failed": failed,
            "cells_from_cache": sum(
                1 for o in self.outcomes.values() if o.source == "cache"
            ),
            "cells_simulated": sum(
                1 for o in self.outcomes.values() if o.source == "sim"
            ),
            "recovered": self.recovered,
        }


class JobQueue:
    """Crash-durable, bounded queue of sweep jobs."""

    def __init__(self, handle, path: Path, jobs: Dict[str, SweepJob],
                 submit_count: int, max_pending_cells: int) -> None:
        self._handle = handle
        self.path = path
        self.jobs = jobs
        self._submit_count = submit_count
        self.max_pending_cells = max_pending_cells
        self._lock = threading.Lock()

    # -- construction ----------------------------------------------------

    @classmethod
    def open(cls, path: PathLike, max_pending_cells: int = 4096) -> "JobQueue":
        """Open (or create) a queue journal, replaying prior state.

        Replay tolerates a torn final record (a crash mid-append) by
        truncating it — the cell it described was never acknowledged,
        so re-running it is correct.  Jobs left ``running`` by a crash
        are moved back to ``queued`` with ``recovered`` set.
        """
        path = Path(path)
        handle, replayed = open_jsonl(
            path,
            {"kind": "header", "queue_version": _QUEUE_VERSION},
            lambda records: cls._replay(records, path),
        )
        jobs, submit_count = replayed or ({}, 0)
        queue = cls(handle, path, jobs, submit_count, max_pending_cells)
        queue._recover_interrupted()
        return queue

    @staticmethod
    def _replay(records, path):
        jobs: Dict[str, SweepJob] = {}
        submit_count = 0
        for index, record in enumerate(records):
            kind = record.get("kind")
            if index == 0:
                if kind != "header":
                    raise ValueError(
                        f"{path} is not a job-queue journal (first line is "
                        f"{kind!r}, expected a header)"
                    )
                if record.get("queue_version") != _QUEUE_VERSION:
                    raise ValueError(
                        f"queue journal {path} has version "
                        f"{record.get('queue_version')}; this library reads "
                        f"version {_QUEUE_VERSION}"
                    )
            elif kind == "submit":
                submit_count += 1
                job = SweepJob(
                    job_id=record["job_id"],
                    spec=SweepSpec.from_dict(record["spec"]),
                )
                jobs[job.job_id] = job
            elif kind == "job-state":
                job = jobs.get(record["job_id"])
                if job is not None:
                    job.state = record["state"]
            elif kind == "cell":
                job = jobs.get(record["job_id"])
                if job is None:
                    continue
                failure = (
                    _failure_from_dict(record["failure"])
                    if record.get("failure")
                    else None
                )
                outcome = CellOutcome(
                    config=record["config"],
                    mix=record["mix"],
                    key=record["key"],
                    source=record["source"],
                    failure=failure,
                )
                job.outcomes[(outcome.config, outcome.mix)] = outcome
        return jobs, submit_count

    def _recover_interrupted(self) -> None:
        for job in self.jobs.values():
            if job.state == "running":
                job.recovered = True
                self.set_state(job.job_id, "queued")

    # -- admission + submission -----------------------------------------

    def pending_cell_count(self) -> int:
        return sum(job.pending_cell_count() for job in self.jobs.values())

    def submit(self, spec: SweepSpec) -> str:
        """Durably enqueue a sweep; raises ``ServiceOverloadError`` when full."""
        with self._lock:
            pending = self.pending_cell_count()
            if pending + spec.cell_count() > self.max_pending_cells:
                raise ServiceOverloadError(
                    f"queue full: {pending} cells pending, adding "
                    f"{spec.cell_count()} would exceed the "
                    f"{self.max_pending_cells}-cell admission bound"
                )
            self._submit_count += 1
            job_id = f"job-{self._submit_count:04d}-{spec.fingerprint()}"
            append_jsonl(
                self._handle,
                {"kind": "submit", "job_id": job_id, "spec": spec.to_dict()},
            )
            self.jobs[job_id] = SweepJob(job_id=job_id, spec=spec)
            return job_id

    # -- progress --------------------------------------------------------

    def set_state(self, job_id: str, state: str) -> None:
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        with self._lock:
            append_jsonl(
                self._handle,
                {"kind": "job-state", "job_id": job_id, "state": state},
            )
            self.jobs[job_id].state = state

    def record_cell(self, job_id: str, outcome: CellOutcome) -> None:
        """Durably record one cell's fate (journal first, then memory)."""
        record = {
            "kind": "cell",
            "job_id": job_id,
            "config": outcome.config,
            "mix": outcome.mix,
            "key": outcome.key,
            "source": outcome.source,
        }
        if outcome.failure is not None:
            record["failure"] = _failure_to_dict(outcome.failure)
        with self._lock:
            append_jsonl(self._handle, record)
            job = self.jobs[job_id]
            job.outcomes[(outcome.config, outcome.mix)] = outcome

    def next_queued(self) -> Optional[SweepJob]:
        with self._lock:
            for job in self.jobs.values():  # insertion == submission order
                if job.state == "queued":
                    return job
        return None

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["CellOutcome", "JOB_STATES", "JobQueue", "SweepJob", "SweepSpec"]
