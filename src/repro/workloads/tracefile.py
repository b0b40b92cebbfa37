"""Trace capture and replay.

The synthetic generators are deterministic, but users porting their own
workloads (or wanting exact cross-tool comparisons) need file-based
traces.  The format is one record per line::

    <gap> <hex addr> <R|W> <hex pc>

optionally gzip-compressed (suffix ``.gz``).  ``capture`` snapshots a
generator to a file; ``read_trace_batches`` streams one back as
columnar :class:`~repro.cpu.trace.TraceBatch` chunks — the one record
parser — optionally looping forever (the core model expects endless
traces), and ``read_trace`` is its row-form view.
"""

from __future__ import annotations

import gzip
import itertools
from array import array
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from ..cpu.trace import TRACE_BATCH_SIZE, TraceBatch, TraceItem

PathLike = Union[str, Path]

# The columns are array('q'): every field must fit signed 64 bits.
_INT64 = range(-(1 << 63), 1 << 63)


def _open(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")
    return open(path, mode)


def write_trace(items: Iterable[TraceItem], path: PathLike) -> int:
    """Write trace items to ``path``; returns the number written."""
    path = Path(path)
    count = 0
    with _open(path, "w") as handle:
        for item in items:
            kind = "W" if item.is_write else "R"
            handle.write(f"{item.gap} {item.addr:x} {kind} {item.pc:x}\n")
            count += 1
    return count


def capture(trace: Iterator[TraceItem], count: int, path: PathLike) -> int:
    """Snapshot the first ``count`` items of a generator to a file."""
    if count < 1:
        raise ValueError("capture at least one item")
    return write_trace(itertools.islice(trace, count), path)


def _parse_record(parts: List[str]) -> Optional[Tuple[int, int, int, int]]:
    """``(gap, addr, is_write, pc)`` of one split line; None if malformed.

    Malformed: wrong field count or kind, a non-numeric field, a negative
    ``gap`` (the core's dispatch pacing assumes ``gap >= 0``), or a
    value that does not fit the signed 64-bit columns.
    """
    if len(parts) != 4 or parts[2] not in ("R", "W"):
        return None
    try:
        gap, addr, pc = int(parts[0]), int(parts[1], 16), int(parts[3], 16)
    except ValueError:
        return None
    if gap < 0 or gap not in _INT64 or addr not in _INT64 or pc not in _INT64:
        return None
    return gap, addr, 1 if parts[2] == "W" else 0, pc


def read_trace(path: PathLike, loop: bool = False) -> Iterator[TraceItem]:
    """Stream a trace file; with ``loop`` the file repeats forever.

    Looping replays suit the core model's endless-trace contract; the
    wrap point behaves like a program iterating its main loop again.
    A row view over :func:`read_trace_batches`, so both readers accept
    and refuse exactly the same files.
    """
    for batch in read_trace_batches(path, loop=loop):
        yield from batch


def read_trace_batches(
    path: PathLike,
    batch_size: int = TRACE_BATCH_SIZE,
    loop: bool = False,
) -> Iterator[TraceBatch]:
    """Stream a trace file as columnar :class:`TraceBatch` chunks.

    Records parse directly into ``array`` columns — no per-item
    NamedTuple is ever built.  Batches hold ``batch_size`` items except
    possibly the last one per pass (the file's tail); with ``loop`` the
    file repeats forever, restarting a fresh batch at each wrap.

    A malformed record raises ``ValueError`` naming the file and line,
    after the good records before it have been handed over (as a short
    batch), so a replay fails at the bad record, not a batch early.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    path = Path(path)
    while True:
        empty = True
        gaps = array("q")
        addrs = array("q")
        writes = array("b")
        pcs = array("q")
        with _open(path, "r") as handle:
            for lineno, line in enumerate(handle, start=1):
                parts = line.split()
                if not parts or parts[0][0] == "#":
                    continue
                empty = False
                record = _parse_record(parts)
                if record is None:
                    if gaps:
                        yield TraceBatch(gaps, addrs, writes, pcs)
                    raise ValueError(
                        f"{path}:{lineno}: malformed trace record "
                        f"{line.strip()!r}"
                    )
                gap, addr, is_write, pc = record
                gaps.append(gap)
                addrs.append(addr)
                writes.append(is_write)
                pcs.append(pc)
                if len(gaps) >= batch_size:
                    yield TraceBatch(gaps, addrs, writes, pcs)
                    gaps = array("q")
                    addrs = array("q")
                    writes = array("b")
                    pcs = array("q")
        if empty:
            raise ValueError(f"trace file {path} contains no records")
        if gaps:
            yield TraceBatch(gaps, addrs, writes, pcs)
        if not loop:
            return


def trace_length(path: PathLike) -> int:
    """Number of records in a trace file (comments/blank lines skipped)."""
    return sum(1 for _ in read_trace(path))
