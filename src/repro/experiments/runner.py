"""Experiment runner: config x workload matrices with fault isolation.

Every figure in the paper is a matrix of (configuration, workload mix)
simulations reduced to speedups and geometric means.  ``run_matrix``
executes such a matrix, optionally across processes
(``REPRO_PARALLEL=N``), and returns an indexable result table.

A full default-scale sweep takes tens of minutes, so the runner is built
to survive partial failure rather than abort on it:

* with ``workers > 1`` or a ``cell_timeout``, cells run on the
  supervised worker processes of
  :class:`repro.service.supervisor.WorkerSupervisor` — the executor the
  sweep service uses — so a crashed, hung (silent heartbeat) or
  timed-out worker is killed and replaced without taking the matrix
  down; otherwise cells run in this process, one after another;
* failed attempts are retried with exponential backoff, up to
  :attr:`CellPolicy.retries` extra attempts;
* a cell that still fails becomes a recorded :class:`CellFailure` in
  ``ResultTable.failures`` instead of an exception — healthy cells keep
  their results;
* with :attr:`RunPolicy.journal_path` set, every completed cell is
  appended (fsync'd) to an on-disk journal so an interrupted sweep can
  resume, re-simulating only missing or failed cells
  (:attr:`RunPolicy.resume`).

See ``docs/resilience.md`` for the full semantics.
"""

from __future__ import annotations

import math
import os
import time
import traceback
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..common.errors import CellFailedError
from ..system.config import SystemConfig
from ..system.machine import MachineResult, run_workload
from ..system.scale import ExperimentScale
from ..workloads.mixes import MIXES, WorkloadMix
from . import faults
from .spec import SweepSpec


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; raises on empty or non-positive inputs."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of nothing")
    if any(v <= 0 for v in values):
        raise ValueError(f"geometric mean needs positive values, got {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def harmonic_mean(values: Iterable[float]) -> float:
    """Harmonic mean; raises on empty or non-positive inputs."""
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError(f"harmonic mean needs positive values, got {values}")
    return len(values) / sum(1.0 / v for v in values)


@dataclass(frozen=True)
class CellPolicy:
    """How one cell is executed reliably: the knobs every executor shares.

    :class:`RunPolicy` (one ``run_matrix`` call) and
    :class:`repro.service.supervisor.ServicePolicy` (the long-running
    sweep service) extend this with their own fields and defaults.

    Attributes:
        cell_timeout: wall-clock seconds per cell *attempt*; exceeding it
            kills the worker and counts as a failed attempt.  Timeouts
            need a worker process to kill, so under ``run_matrix``
            setting this selects the supervised path even for
            ``workers=1``.
        retries: extra attempts after the first failure (total attempts
            is ``retries + 1``).
        backoff_base / backoff_max: exponential backoff between attempts
            — attempt *n* waits ``min(backoff_max, backoff_base *
            2**(n-1))`` seconds before re-running.
        snapshot_every: checkpoint every cell's machine state every this
            many cycles (see :mod:`repro.snapshot`); an interrupted,
            crashed, preempted or timed-out cell re-attempt resumes from
            its latest snapshot instead of re-simulating from zero.  A
            corrupt or mismatched snapshot is refused and the cell
            restarts clean.
    """

    cell_timeout: Optional[float] = None
    retries: int = 0
    backoff_base: float = 0.25
    backoff_max: float = 8.0
    snapshot_every: Optional[int] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError(
                f"cell_timeout must be positive, got {self.cell_timeout}"
            )
        if self.snapshot_every is not None and self.snapshot_every <= 0:
            raise ValueError(
                f"snapshot_every must be positive, got {self.snapshot_every}"
            )

    def backoff_delay(self, attempt: int) -> float:
        """Seconds to wait after failed attempt number ``attempt``."""
        return min(self.backoff_max, self.backoff_base * 2 ** (attempt - 1))


@dataclass(frozen=True)
class RunPolicy(CellPolicy):
    """Resilience knobs for one ``run_matrix`` invocation.

    Attributes (beyond :class:`CellPolicy`):
        journal_path: append one fsync'd JSON record per completed cell
            here (see :class:`repro.experiments.persistence.CellJournal`).
        resume: skip cells already recorded as successful in the journal;
            failed or missing cells are re-simulated.  Only a journal
            written by the same :class:`~repro.experiments.spec.SweepSpec`
            resumes; any other is refused with ``ValueError``.
        snapshot_dir: directory for per-cell snapshot files (default:
            ``<journal_path>.snapshots`` next to the journal, or
            ``results/snapshots`` without one).
    """

    journal_path: Optional[Union[str, "os.PathLike[str]"]] = None
    resume: bool = False
    snapshot_dir: Optional[Union[str, "os.PathLike[str]"]] = None

    def with_journal(self, path) -> "RunPolicy":
        """Copy of this policy journaling to ``path``."""
        return replace(self, journal_path=path)


@dataclass
class CellFailure:
    """Post-mortem record of one matrix cell that failed after retries."""

    config: str
    mix: str
    error_type: str
    message: str
    traceback: str
    attempts: int
    elapsed: float

    def describe(self) -> str:
        return (
            f"cell ({self.config}, {self.mix}) failed after "
            f"{self.attempts} attempt(s) [{self.elapsed:.1f}s]: "
            f"{self.error_type}: {self.message}"
        )


@dataclass
class CellTask:
    """One cell to simulate, plus its retry state.

    The one cell record: ``run_matrix`` and the sweep service both build
    these through :meth:`SweepSpec.tasks`, :func:`run_cell` simulates
    one, and the supervisor ships them to its workers.  Everything that
    decides *what* is simulated comes from the spec — :func:`run_cell`
    consults no environment variable for it — so the journal signature
    and cell key describe exactly the run the worker performs.
    """

    config: SystemConfig
    mix_name: str
    benchmarks: Tuple[str, ...]
    warmup_instructions: int
    measure_instructions: int
    seed: int
    #: Checker spec (``all`` or names from
    #: :data:`repro.validate.CHECKER_NAMES`); ``None`` attaches none.
    checkers: Optional[str] = None
    #: Sampling spec (see :mod:`repro.sampling`); ``None`` = full detail.
    sampling: Optional[str] = None
    #: :class:`repro.snapshot.SnapshotPlan` when the cell checkpoints
    #: (typed loosely: that package loads only when snapshots are on).
    snapshot: Optional[object] = None
    #: The cell's :func:`~repro.experiments.spec.cell_key`: the sweep
    #: service's cache address and the snapshot file's stem.
    key: str = ""
    attempt: int = 1
    elapsed: float = 0.0
    ready_at: float = 0.0

    def scenario(self) -> Tuple[str, str]:
        return (self.config.name, self.mix_name)

    def failed(self, error_type: str, message: str, tb: str = "") -> CellFailure:
        """The post-mortem of this cell as of its current attempt."""
        return CellFailure(
            config=self.config.name,
            mix=self.mix_name,
            error_type=error_type,
            message=message,
            traceback=tb,
            attempts=self.attempt,
            elapsed=self.elapsed,
        )


#: Environment variable enabling runtime checkers in every cell of a
#: ``run_matrix`` call that passes no ``checkers`` (what the CLI's
#: ``--check`` exports).  Value is a checker spec: ``all`` or a
#: comma-separated subset of :data:`repro.validate.CHECKER_NAMES`.
ENV_CHECK = "REPRO_CHECK"


def run_cell(task: CellTask) -> MachineResult:
    """Simulate one attempt of one cell (in-process or inside a worker)."""
    config, mix_name = task.config, task.mix_name
    faults.inject(config.name, mix_name, task.attempt)
    plan = None
    if task.sampling:
        from ..sampling.plan import parse_sample_spec

        plan = parse_sample_spec(task.sampling)
    snap_path = task.snapshot.path if task.snapshot is not None else None

    def simulate(resume_from):
        return run_workload(
            config,
            task.benchmarks,
            warmup_instructions=task.warmup_instructions,
            measure_instructions=task.measure_instructions,
            seed=task.seed,
            workload_name=mix_name,
            checkers=task.checkers,
            sampling=plan,
            snapshot=task.snapshot,
            resume_from=resume_from,
        )

    if snap_path is not None and os.path.exists(snap_path):
        # A previous attempt (crash, timeout, preemption) left a
        # checkpoint: pick up from it rather than re-simulating the
        # prefix.  A corrupt, torn or mismatched snapshot is *refused*
        # by the loader — fall back to a clean from-zero run; never
        # silently resume bad state.
        from ..common.errors import SnapshotError

        try:
            result = simulate(snap_path)
        except SnapshotError:
            try:
                os.unlink(snap_path)
            except OSError:
                pass
            result = simulate(None)
        else:
            _write_resume_sidecar(
                snap_path, config.name, mix_name, task.attempt
            )
    else:
        result = simulate(None)
    if snap_path is not None:
        # The cell is done: its checkpoint must not shadow a future run.
        try:
            os.unlink(snap_path)
        except OSError:
            pass
    return result


def _write_resume_sidecar(
    snap_path: str, config_name: str, mix_name: str, attempt: int
) -> None:
    """Record that a cell resumed from a checkpoint (``.resumed.json``).

    Evidence for operators and the validation harness: the sidecar
    outlives the snapshot itself (which is deleted once the cell
    completes).
    """
    import json

    sidecar = f"{snap_path}.resumed.json"
    try:
        with open(sidecar, "w") as handle:
            json.dump(
                {
                    "config": config_name,
                    "mix": mix_name,
                    "attempt": attempt,
                    "snapshot": os.path.basename(snap_path),
                },
                handle,
            )
    except OSError:  # informational only — never fail the cell over it
        pass


@dataclass
class ResultTable:
    """Results of a config x mix matrix.

    ``cells`` holds results for completed cells; ``failures`` holds a
    :class:`CellFailure` for every cell that failed after all retries.
    Accessors are *strict* by default: touching a failed cell raises
    :class:`~repro.common.errors.CellFailedError` with the post-mortem.
    Use :meth:`ok`/:meth:`result_or_none` or ``gm_speedup(...,
    skip_failed=True)`` for lenient access over partial results.
    """

    configs: List[str]
    mixes: List[str]
    cells: Dict[Tuple[str, str], MachineResult]
    failures: Dict[Tuple[str, str], CellFailure] = field(default_factory=dict)

    def ok(self, config_name: str, mix_name: str) -> bool:
        """True when this cell completed successfully."""
        return (config_name, mix_name) in self.cells

    def failure(self, config_name: str, mix_name: str) -> Optional[CellFailure]:
        """The failure record for this cell, if it failed."""
        return self.failures.get((config_name, mix_name))

    def result(self, config_name: str, mix_name: str) -> MachineResult:
        """Strict accessor: raises ``CellFailedError`` on a failed cell."""
        try:
            return self.cells[(config_name, mix_name)]
        except KeyError:
            failure = self.failures.get((config_name, mix_name))
            if failure is not None:
                raise CellFailedError(failure.describe()) from None
            raise

    def result_or_none(
        self, config_name: str, mix_name: str
    ) -> Optional[MachineResult]:
        """Lenient accessor: ``None`` for failed or missing cells."""
        return self.cells.get((config_name, mix_name))

    def hmipc(self, config_name: str, mix_name: str) -> float:
        return self.result(config_name, mix_name).hmipc

    def speedup(self, config_name: str, mix_name: str, baseline: str) -> float:
        """HMIPC speedup of a config over a baseline config, same mix."""
        base = self.hmipc(baseline, mix_name)
        if base <= 0:
            raise ValueError(f"baseline {baseline} HMIPC is zero on {mix_name}")
        return self.hmipc(config_name, mix_name) / base

    def gm_speedup(
        self,
        config_name: str,
        baseline: str,
        groups: Optional[Sequence[str]] = None,
        skip_failed: bool = False,
    ) -> float:
        """Geometric-mean speedup over the mixes in ``groups`` (or all).

        With ``skip_failed=True`` mixes where either config failed are
        dropped (raising only when *no* mix completed for both); the
        default is strict and raises on the first failed cell touched.
        """
        names = [
            m
            for m in self.mixes
            if groups is None or MIXES[m].group in groups
        ]
        if skip_failed:
            names = [
                m
                for m in names
                if self.ok(config_name, m) and self.ok(baseline, m)
            ]
            if not names:
                raise CellFailedError(
                    f"no mixes completed for both {config_name} and {baseline}"
                )
        return geometric_mean(
            self.speedup(config_name, m, baseline) for m in names
        )

    def sampling_note(self) -> Optional[str]:
        """One-line sampled-run annotation, or ``None`` for full detail.

        When the table's cells came from sampled simulation their values
        are estimates; reports append this note so the confidence travels
        with the numbers (the raw ``sample_*`` keys persist per cell via
        the journal).
        """
        sampled = [r for r in self.cells.values() if r.extra.get("sampled")]
        if not sampled:
            return None
        worst = max(r.extra.get("sample_rel_ci95_max", 0.0) for r in sampled)
        intervals = sampled[0].extra.get("sample_intervals", 0)
        return (
            f"sampled simulation ({len(sampled)}/{len(self.cells)} cells, "
            f"{intervals:.0f} intervals/cell): values are estimates, worst "
            f"per-core IPC rel 95% CI {worst:.1%}"
        )


def parallelism_from_env() -> int:
    """Worker count from ``REPRO_PARALLEL`` (default: serial).

    Accepts a positive integer or ``auto`` (one worker per CPU).
    """
    value = os.environ.get("REPRO_PARALLEL", "1").strip()
    if value.lower() == "auto":
        return os.cpu_count() or 1
    try:
        workers = int(value)
    except ValueError:
        raise ValueError(
            f"REPRO_PARALLEL must be a positive integer or 'auto', "
            f"got {value!r}"
        ) from None
    if workers < 1:
        raise ValueError(f"REPRO_PARALLEL must be >= 1, got {workers}")
    return workers


# ----------------------------------------------------------------------
# Internal execution machinery


class _Recorder:
    """Collects cell outcomes and mirrors them into the journal."""

    def __init__(self, journal=None) -> None:
        self.cells: Dict[Tuple[str, str], MachineResult] = {}
        self.failures: Dict[Tuple[str, str], CellFailure] = {}
        self.journal = journal

    def record_result(self, task: CellTask, result: MachineResult) -> None:
        self.cells[task.scenario()] = result
        self.failures.pop(task.scenario(), None)
        if self.journal is not None:
            self.journal.record_result(
                task.config.name, task.mix_name, result, attempts=task.attempt
            )

    def record_failure(self, task: CellTask, failure: CellFailure) -> None:
        self.failures[task.scenario()] = failure
        if self.journal is not None:
            self.journal.record_failure(failure)


def _run_serial(
    tasks: List[CellTask], policy: RunPolicy, recorder: _Recorder
) -> None:
    """In-process execution with retries (no wall-clock timeouts).

    ``KeyboardInterrupt``/``SystemExit`` propagate so Ctrl-C still stops
    a sweep — completed cells are already safe in the journal.
    """
    for task in tasks:
        while True:
            start = time.monotonic()
            try:
                result = run_cell(task)
            except Exception as exc:
                task.elapsed += time.monotonic() - start
                if task.attempt <= policy.retries:
                    time.sleep(policy.backoff_delay(task.attempt))
                    task.attempt += 1
                    continue
                recorder.record_failure(
                    task,
                    task.failed(
                        type(exc).__name__, str(exc), traceback.format_exc()
                    ),
                )
                break
            task.elapsed += time.monotonic() - start
            recorder.record_result(task, result)
            break


def _run_supervised(
    tasks: List[CellTask], workers: int, policy: RunPolicy, recorder: _Recorder
) -> None:
    """Execution on supervised worker processes (the service's executor).

    A matrix owns its supervisor for the duration of the call and hands
    it no circuit breaker: every cell it was asked to run is attempted
    ``retries + 1`` times.  Whatever ends the call — completion, Ctrl-C,
    a journal write error — no worker process outlives it.
    """
    # Imported here so that importing (and serially running) experiments
    # never pays for multiprocessing or the service package.
    from ..service.supervisor import ServicePolicy, WorkerSupervisor

    shared = {f.name: getattr(policy, f.name) for f in fields(CellPolicy)}
    supervisor = WorkerSupervisor(ServicePolicy(workers=workers, **shared))
    try:
        supervisor.run(tasks, recorder.record_result, recorder.record_failure)
    finally:
        supervisor.shutdown()


def run_matrix(
    configs: Sequence[SystemConfig],
    mixes: Sequence[WorkloadMix],
    scale: ExperimentScale,
    seed: int = 42,
    workers: Optional[int] = None,
    policy: Optional[RunPolicy] = None,
    checkers: Optional[str] = None,
    sampling: Optional[str] = None,
) -> ResultTable:
    """Simulate every (config, mix) pair.

    With the default :class:`RunPolicy` any cell failure is recorded in
    ``ResultTable.failures`` after ``policy.retries`` extra attempts and
    the rest of the matrix still completes; pass ``cell_timeout``,
    ``retries``, ``journal_path``/``resume`` on ``policy`` for the full
    resilience behaviour (see module docstring).

    ``checkers`` attaches runtime invariant checkers (see
    :mod:`repro.validate`) to every cell; a
    :class:`~repro.common.errors.CheckViolation` fails the cell like any
    other error (and is retried/journaled the same way).  ``None`` falls
    back to the ``REPRO_CHECK`` environment variable, for runs that
    cannot pass the argument (e.g. the CLI experiment commands).

    ``sampling`` runs every cell in sampled mode (see
    :mod:`repro.sampling`): a spec string such as
    ``"detailed:1200,warmup:4650"`` or ``"on"`` for the default plan;
    ``None`` simulates in full detail.  Sampled cell results carry
    ``sample_*`` keys in ``MachineResult.extra`` (interval count and the
    relative 95% CI of the IPC estimate), which the journal persists
    alongside the speedups; a sampled journal is only resumed under the
    same sampling plan.

    ``REPRO_CHECK`` is read here, once, into the run's
    :class:`~repro.experiments.spec.SweepSpec`: the journal header is
    its signature, the cells are its tasks, and workers never consult
    the environment.  A journal resumes only under an identical spec —
    same config contents, mix benchmarks, scale, seed, checkers and
    sampling.
    """
    policy = RunPolicy() if policy is None else policy
    if policy.resume and policy.journal_path is None:
        raise ValueError("resume=True needs a journal_path to resume from")
    workers = parallelism_from_env() if workers is None else max(1, workers)
    supervised = workers > 1 or policy.cell_timeout is not None
    if checkers is None:
        checkers = os.environ.get(ENV_CHECK)
    spec = SweepSpec(
        configs, mixes, scale, seed, checkers or None, sampling or None
    )

    snapshot_dir = None
    if policy.snapshot_every is not None:
        if policy.snapshot_dir is not None:
            snapshot_dir = str(policy.snapshot_dir)
        elif policy.journal_path is not None:
            snapshot_dir = f"{policy.journal_path}.snapshots"
        else:
            snapshot_dir = os.path.join("results", "snapshots")
    # Supervised workers honor a SIGUSR1 request to checkpoint and yield
    # before a timeout or hang kill; nothing sends one to the in-process
    # loop.  Building the tasks rejects a malformed checker or sampling
    # spec before the journal is touched.
    tasks = spec.tasks(
        snapshot_dir=snapshot_dir,
        snapshot_every=policy.snapshot_every,
        preemptible=supervised,
    )

    journal = None
    recorder = _Recorder()
    if policy.journal_path is not None:
        from .persistence import CellJournal

        journal = CellJournal.open(
            policy.journal_path, spec.signature(), resume=policy.resume
        )
        recorder.journal = journal
        if policy.resume:
            recorder.cells.update(journal.completed)
            tasks = [
                task for task in tasks
                if task.scenario() not in journal.completed
            ]

    try:
        if tasks and supervised:
            _run_supervised(tasks, workers, policy, recorder)
        else:
            _run_serial(tasks, policy, recorder)
    finally:
        if journal is not None:
            journal.close()
    return ResultTable(
        configs=[c.name for c in spec.configs],
        mixes=[m.name for m in spec.mixes],
        cells=recorder.cells,
        failures=recorder.failures,
    )
