"""Structured exception taxonomy for simulation and experiment failures.

The engine, the machine driver, and the experiment runner all used to
raise (or swallow) a single flat ``SimulationError``; a crashed sweep
could not tell a runaway simulation from a deadlocked one from a worker
process that was OOM-killed.  The taxonomy below keeps ``SimulationError``
as the common base (existing ``except SimulationError`` sites keep
working) and adds one subclass per distinct failure mode, each carrying
enough context to diagnose the cell post-mortem.
"""

from __future__ import annotations

from typing import Optional


class SimulationError(RuntimeError):
    """Base class for engine misuse and simulation failures."""


class SimulationHang(SimulationError):
    """A simulation exceeded its event or cycle budget without finishing.

    Raised by the engine watchdog (``max_events``/``max_cycles``) and by
    :meth:`repro.system.machine.Machine.run` when a warmup or measurement
    window does not complete within ``max_cycles``.
    """

    def __init__(
        self,
        message: str,
        *,
        cycle: Optional[int] = None,
        events_fired: Optional[int] = None,
        queue_depth: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.cycle = cycle
        self.events_fired = events_fired
        self.queue_depth = queue_depth


class SimulationDeadlock(SimulationError):
    """The event queue drained while the machine still had pending work.

    A discrete-event simulation makes progress only through scheduled
    events; if the queue empties while MSHRs or memory-controller queues
    still hold outstanding requests, some component dropped a callback
    and the simulation can never finish.  Detected by the engine's
    no-progress watchdog (see :class:`repro.engine.simulator.Watchdog`).
    """

    def __init__(
        self,
        message: str,
        *,
        cycle: Optional[int] = None,
        pending_work: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.cycle = cycle
        self.pending_work = pending_work


class CellTimeout(SimulationError):
    """A matrix cell exceeded its wall-clock budget and was killed."""

    def __init__(
        self,
        message: str,
        *,
        elapsed: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.elapsed = elapsed
        self.timeout = timeout


class WorkerCrash(SimulationError):
    """A worker process died without reporting a result (crash/OOM-kill)."""

    def __init__(self, message: str, *, exitcode: Optional[int] = None) -> None:
        super().__init__(message)
        self.exitcode = exitcode


class InjectedFault(SimulationError):
    """Raised by the fault-injection hooks (testing the resilience layer)."""


class CheckViolation(SimulationError):
    """A runtime correctness checker found an invariant violation.

    Raised by the opt-in checkers in :mod:`repro.validate` (DRAM timing
    legality, MSHR conservation, memory-controller queue conservation)
    the moment the violated invariant is observed, with enough context
    to localize it: which checker, the simulated cycle, the violated
    constraint, and a dump of the relevant component state.
    """

    def __init__(
        self,
        message: str,
        *,
        checker: Optional[str] = None,
        cycle: Optional[int] = None,
        constraint: Optional[str] = None,
        state: Optional[dict] = None,
    ) -> None:
        super().__init__(message)
        self.checker = checker
        self.cycle = cycle
        self.constraint = constraint
        self.state = dict(state) if state else {}

    def describe(self) -> str:
        """Multi-line post-mortem: message plus the captured state dump."""
        lines = [str(self)]
        if self.checker is not None:
            lines.append(f"  checker:    {self.checker}")
        if self.constraint is not None:
            lines.append(f"  constraint: {self.constraint}")
        if self.cycle is not None:
            lines.append(f"  cycle:      {self.cycle}")
        for key in sorted(self.state):
            lines.append(f"  {key}: {self.state[key]}")
        return "\n".join(lines)


class CellFailedError(RuntimeError):
    """Strict access to a matrix cell that failed after all retries.

    Raised by :class:`repro.experiments.runner.ResultTable` accessors when
    the requested (config, mix) cell is recorded as a
    :class:`~repro.experiments.runner.CellFailure` rather than a result.
    """


class SnapshotError(SimulationError):
    """Base class for checkpoint/restore failures (:mod:`repro.snapshot`).

    Every refusal to load a snapshot raises a subclass of this; callers
    that want "resume if possible, else start from zero" catch this one
    type.  A snapshot is *never* silently patched up and resumed — a
    refused file means a from-scratch run, not a best-effort restore.
    """

    def __init__(self, message: str, *, path: Optional[str] = None) -> None:
        super().__init__(message)
        self.path = path


class SnapshotFormatError(SnapshotError):
    """The file is not a snapshot, is torn, or fails its checksum.

    Covers a missing/garbled magic line, an unparsable header, a payload
    shorter than the header promises (torn tail from a crash mid-write),
    trailing garbage, and checksum mismatches (bit rot or tampering).
    """


class SnapshotSchemaError(SnapshotError):
    """The snapshot was written by an incompatible schema version.

    Snapshot state trees are versioned as a whole; a reader never guesses
    at fields written by a different layout.
    """

    def __init__(
        self,
        message: str,
        *,
        path: Optional[str] = None,
        found: Optional[int] = None,
        expected: Optional[int] = None,
    ) -> None:
        super().__init__(message, path=path)
        self.found = found
        self.expected = expected


class SnapshotConfigMismatch(SnapshotError):
    """The snapshot's config fingerprint does not match the requested cell.

    Resuming a snapshot under a different :class:`SystemConfig`, mix,
    seed, or checker set would produce a machine whose future diverges
    from (and whose past never happened under) the requested cell; the
    loader refuses instead.
    """

    def __init__(
        self,
        message: str,
        *,
        path: Optional[str] = None,
        found: Optional[str] = None,
        expected: Optional[str] = None,
    ) -> None:
        super().__init__(message, path=path)
        self.found = found
        self.expected = expected


class SnapshotPreempted(SimulationError):
    """A run was suspended at a snapshot boundary on external request.

    Raised by the machine drive loop after the checkpoint has been
    durably written, so the caller (a preempted supervised worker) knows the
    on-disk snapshot is complete and the cell can be rescheduled to
    resume from it.  Not a :class:`SnapshotError`: nothing failed.
    """

    def __init__(self, message: str, *, path: Optional[str] = None, cycle: Optional[int] = None) -> None:
        super().__init__(message)
        self.path = path
        self.cycle = cycle


__all__ = [
    "CellFailedError",
    "CellTimeout",
    "CheckViolation",
    "InjectedFault",
    "SimulationDeadlock",
    "SimulationError",
    "SimulationHang",
    "SnapshotConfigMismatch",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotPreempted",
    "SnapshotSchemaError",
    "WorkerCrash",
]
