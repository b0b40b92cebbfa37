"""JSON persistence for experiment results.

Full default-scale sweeps take tens of minutes; saving the raw
``ResultTable`` lets analysis (speedups, GMs, new cuts of the data)
re-run instantly without re-simulating.

Two complementary mechanisms:

* :func:`save_table`/:func:`load_table` — a complete table as one JSON
  document, written with :func:`~repro.common.durable.write_atomic` so
  an interrupt mid-save never corrupts an existing results file.
* :class:`CellJournal` — an incremental JSONL journal appended (and
  fsync'd) one record per *completed cell* while a matrix is running,
  so an interrupted sweep can resume and skip finished cells
  (``RunPolicy(journal_path=..., resume=True)``).
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..common.durable import write_atomic
from ..system.machine import CoreResult, MachineResult
from .runner import CellFailure, ResultTable

PathLike = Union[str, Path]

#: Version written by :func:`save_table`.
_FORMAT_VERSION = 2
#: Versions :func:`load_table` understands (v1 files predate ``failures``).
_READABLE_VERSIONS = (1, 2)

#: Version written into journal headers.
_JOURNAL_VERSION = 1


def _result_to_dict(result: MachineResult) -> dict:
    return {
        "config_name": result.config_name,
        "workload": result.workload,
        "total_cycles": result.total_cycles,
        "l2_stats": result.l2_stats,
        "dram_row_hit_rate": result.dram_row_hit_rate,
        "mshr_avg_probes": result.mshr_avg_probes,
        "extra": result.extra,
        "cores": [
            {
                "benchmark": core.benchmark,
                "ipc": core.ipc,
                "instructions": core.instructions,
                "cycles": core.cycles,
                "l2_mpki": core.l2_mpki,
                "avg_load_latency": core.avg_load_latency,
            }
            for core in result.cores
        ],
    }


def _result_from_dict(data: dict) -> MachineResult:
    return MachineResult(
        config_name=data["config_name"],
        workload=data["workload"],
        cores=[CoreResult(**core) for core in data["cores"]],
        total_cycles=data["total_cycles"],
        l2_stats=data["l2_stats"],
        dram_row_hit_rate=data["dram_row_hit_rate"],
        mshr_avg_probes=data["mshr_avg_probes"],
        extra=data.get("extra", {}),
    )


def _failure_to_dict(failure: CellFailure) -> dict:
    return {
        "config": failure.config,
        "mix": failure.mix,
        "error_type": failure.error_type,
        "message": failure.message,
        "traceback": failure.traceback,
        "attempts": failure.attempts,
        "elapsed": failure.elapsed,
    }


def _failure_from_dict(data: dict) -> CellFailure:
    return CellFailure(
        config=data["config"],
        mix=data["mix"],
        error_type=data["error_type"],
        message=data["message"],
        traceback=data.get("traceback", ""),
        attempts=data.get("attempts", 1),
        elapsed=data.get("elapsed", 0.0),
    )


def table_to_dict(table: ResultTable) -> dict:
    """The one wire form of a table (results file and HTTP API)."""
    return {
        "configs": table.configs,
        "mixes": table.mixes,
        "cells": [
            {
                "config": config,
                "mix": mix,
                "result": _result_to_dict(result),
            }
            for (config, mix), result in sorted(table.cells.items())
        ],
        "failures": [
            _failure_to_dict(failure)
            for _, failure in sorted(table.failures.items())
        ],
    }


def table_from_dict(payload: dict) -> ResultTable:
    """Inverse of :func:`table_to_dict` (``failures`` optional)."""
    return ResultTable(
        configs=list(payload["configs"]),
        mixes=list(payload["mixes"]),
        cells={
            (cell["config"], cell["mix"]): _result_from_dict(cell["result"])
            for cell in payload["cells"]
        },
        failures={
            (record["config"], record["mix"]): _failure_from_dict(record)
            for record in payload.get("failures", [])
        },
    )


def save_table(table: ResultTable, path: PathLike) -> None:
    """Write a result table to a JSON file (atomically)."""
    payload = {"format_version": _FORMAT_VERSION, **table_to_dict(table)}
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True))


def load_table(path: PathLike) -> ResultTable:
    """Read a result table back; raises on unknown format versions."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version not in _READABLE_VERSIONS:
        readable = "/".join(str(v) for v in _READABLE_VERSIONS)
        raise ValueError(
            f"result file {path} has format version {version}; "
            f"this library reads versions {readable} — "
            "it was probably written by a newer release"
        )
    return table_from_dict(payload)


# ----------------------------------------------------------------------
# fsync'd JSONL: append-only JSON-per-line files where every append is
# flushed and fsync'd, and a crash mid-append tears at most the final
# line.


def append_jsonl(handle: io.TextIOBase, record: dict) -> None:
    """Append one record as a JSON line; durable once this returns."""
    handle.write(json.dumps(record, sort_keys=True) + "\n")
    handle.flush()
    os.fsync(handle.fileno())


def scan_jsonl(path: PathLike) -> Tuple[list, int]:
    """Replay a JSONL journal, tolerating a torn final line.

    Returns ``(records, valid_bytes)`` where ``valid_bytes`` is the
    byte length of the valid prefix: every complete
    ``<json>\\n``-terminated line.  A final line that is truncated,
    corrupt, or missing its newline (a crash mid-append) is excluded
    from both — callers that reopen the journal for appending must
    first truncate the file to ``valid_bytes`` so the next append does
    not glue onto the torn tail.  A corrupt line *followed by further
    lines* is not a torn append but real corruption, and raises
    ``ValueError``.
    """
    records: list = []
    valid_bytes = 0
    with open(path, "rb") as handle:
        data = handle.read()
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            # No terminator: the final append was torn mid-write (even
            # if the fragment happens to parse, its durability marker —
            # the newline — never made it to disk).
            break
        line = data[offset:newline]
        try:
            record = json.loads(line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            if data.find(b"\n", newline + 1) >= 0 or data[newline + 1:]:
                raise ValueError(
                    f"journal {path} is corrupt at byte {offset}: bad "
                    f"record followed by further data (not a torn final "
                    f"append)"
                ) from None
            break
        records.append(record)
        valid_bytes = newline + 1
        offset = newline + 1
    return records, valid_bytes


# ----------------------------------------------------------------------
# Incremental cell journal (checkpoint/resume)


class CellJournal:
    """Append-only JSONL journal of per-cell outcomes.

    Line 1 is a header carrying the run's signature — the
    :meth:`~repro.experiments.spec.SweepSpec.signature` of the sweep,
    whether ``run_matrix`` or the sweep service wrote it; every further
    line records one completed cell (``kind: result``) or one
    exhausted-retry failure (``kind: failure``).  Each append is
    flushed and fsync'd so a kill -9 loses at most the cell in flight; a
    truncated final line (killed mid-append) is tolerated and ignored on
    load.  A sweep-service job (:mod:`repro.service.queue`) is one such
    file.
    """

    def __init__(
        self,
        path: Path,
        records: list,
        handle: Optional[io.TextIOBase] = None,
    ) -> None:
        self.path = path
        self._handle = handle
        #: The header's signature (``None`` if no header was replayed).
        self.signature = None
        #: Successful cells: replayed, then added by :meth:`record_result`.
        self.completed: Dict[Tuple[str, str], MachineResult] = {}
        #: Exhausted-retry failures (a later result for the cell clears it).
        self.failed: Dict[Tuple[str, str], CellFailure] = {}
        #: Simulation attempts behind each completed cell.
        self.attempts: Dict[Tuple[str, str], int] = {}
        self._parse(records)

    # -- construction ---------------------------------------------------

    @classmethod
    def open(
        cls, path: PathLike, signature: dict, resume: bool = False
    ) -> "CellJournal":
        """Open a journal for writing.

        With ``resume=True`` an existing journal must carry exactly
        ``signature`` — any difference (config contents, mix benchmarks,
        scale, seed, checkers, sampling) raises ``ValueError`` so cells
        of another run are never mixed in; on success its completed
        cells are loaded and appending continues.  Without ``resume``
        any existing journal is truncated and restarted.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if not resume or not path.exists() or path.stat().st_size == 0:
            header = {
                "kind": "header",
                "journal_version": _JOURNAL_VERSION,
                "signature": signature,
            }
            handle = open(path, "w")
            append_jsonl(handle, header)
            return cls(path, [header], handle)
        records, valid_bytes = scan_jsonl(path)
        journal = cls(path, records)
        if journal.signature != signature:
            raise ValueError(
                f"journal {path} was written by a different run (its "
                f"header's signature does not match this sweep's); "
                f"delete it or drop --resume"
            )
        if path.stat().st_size > valid_bytes:
            # Cut off a torn final record (a crash mid-append): the next
            # append would otherwise glue onto it.
            with open(path, "r+b") as tail:
                tail.truncate(valid_bytes)
                tail.flush()
                os.fsync(tail.fileno())
        journal._handle = open(path, "a")
        return journal

    def _parse(self, records) -> None:
        """The one replay: interpret records (torn tail already gone)."""
        for index, record in enumerate(records):
            kind = record.get("kind")
            if index == 0:
                if kind != "header":
                    raise ValueError(
                        f"{self.path} is not a cell journal (first line is "
                        f"{kind!r}, expected a header)"
                    )
                if record.get("journal_version") != _JOURNAL_VERSION:
                    raise ValueError(
                        f"journal {self.path} has version "
                        f"{record.get('journal_version')}; this library "
                        f"reads version {_JOURNAL_VERSION}"
                    )
                self.signature = record.get("signature")
            elif kind == "result":
                self._note_result(
                    record["config"], record["mix"],
                    _result_from_dict(record["result"]),
                    record.get("attempts", 1),
                )
            elif kind == "failure":
                failure = _failure_from_dict(record["failure"])
                self.failed[(failure.config, failure.mix)] = failure

    def _note_result(self, config, mix, result, attempts) -> None:
        self.completed[(config, mix)] = result
        self.attempts[(config, mix)] = attempts
        self.failed.pop((config, mix), None)

    @classmethod
    def read(cls, path: PathLike) -> "CellJournal":
        """Replay a journal without opening it for writing.

        A torn final line is tolerated (and left in place — only
        :meth:`open` with ``resume=True`` truncates it).
        """
        path = Path(path)
        return cls(path, scan_jsonl(path)[0])

    # -- appending ------------------------------------------------------

    def record_result(
        self, config: str, mix: str, result: MachineResult, attempts: int = 1
    ) -> None:
        """Checkpoint one successfully completed cell."""
        append_jsonl(
            self._handle,
            {
                "kind": "result",
                "config": config,
                "mix": mix,
                "attempts": attempts,
                "result": _result_to_dict(result),
            },
        )
        self._note_result(config, mix, result, attempts)

    def record_failure(self, failure: CellFailure) -> None:
        """Record a cell that failed after all retries (re-run on resume)."""
        append_jsonl(
            self._handle,
            {"kind": "failure", "failure": _failure_to_dict(failure)},
        )
        self.failed[(failure.config, failure.mix)] = failure

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "CellJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
