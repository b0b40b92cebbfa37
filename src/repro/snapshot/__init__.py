"""Deterministic whole-machine checkpoint/restore.

``repro.snapshot`` lets a half-finished simulation be suspended to an
atomic, checksummed file and resumed — in another process, after a
crash, or on another host — with bit-identical continued behaviour.
Three layers:

* :mod:`~repro.snapshot.format` — the crash-safe file format (magic +
  schema version + config fingerprint + checksummed payload; tmp/fsync/
  rename writes; torn or tampered files are refused, never repaired).
* :mod:`~repro.snapshot.codec` — the state walk: every component's
  instance fields as plain data, shared objects numbered, callbacks
  encoded structurally, restored in place onto a freshly built machine
  (the layout of every walked class is checked first).
* :class:`repro.system.machine.Machine` — ``snapshot()`` / ``resume()``
  plus the chunked drive loop that takes periodic checkpoints at
  deterministic cycle boundaries (see :class:`SnapshotPlan`).

See ``docs/snapshot.md`` for the format, the layout check, preemption
semantics and what is deliberately *not* captured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.errors import (
    SnapshotConfigMismatch,
    SnapshotError,
    SnapshotFormatError,
    SnapshotPreempted,
    SnapshotSchemaError,
)
from . import codec, preemption
from .format import (
    SCHEMA_VERSION,
    read_snapshot_file,
    read_snapshot_header,
    write_snapshot_file,
)


@dataclass(frozen=True)
class SnapshotPlan:
    """How (and whether) a run takes periodic checkpoints.

    ``every`` sets the boundary cadence in simulated cycles; boundaries
    fall on absolute multiples of ``every``, so the schedule — and with
    it the engine's ``run(until=...)`` chunking — depends only on the
    cadence, never on where a previous run was interrupted.  That makes
    a resumed run's remaining chunk sequence identical to the oracle's.

    ``write=False`` keeps the chunk cadence without writing any files —
    used by validation oracles so interrupted and uninterrupted runs see
    the same deadline schedule.  ``preemptible`` additionally polls the
    cooperative preemption flag at each boundary and, when set, writes a
    final checkpoint and raises
    :class:`~repro.common.errors.SnapshotPreempted`.
    """

    path: Optional[str] = None
    every: int = 200_000
    write: bool = True
    preemptible: bool = False
    #: Also write a checkpoint before propagating a watchdog hang, so a
    #: stuck cell can be post-mortemed (or resumed with a larger budget).
    snapshot_on_hang: bool = True

    def __post_init__(self) -> None:
        if self.every <= 0:
            raise ValueError(f"snapshot cadence must be positive, got {self.every}")
        if self.write and self.path is None:
            raise ValueError("a writing SnapshotPlan needs a path")


__all__ = [
    "SCHEMA_VERSION",
    "SnapshotConfigMismatch",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotPlan",
    "SnapshotPreempted",
    "SnapshotSchemaError",
    "preemption",
    "read_snapshot_file",
    "read_snapshot_header",
    "write_snapshot_file",
]
