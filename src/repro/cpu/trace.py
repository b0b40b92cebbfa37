"""Trace item and columnar trace-batch types consumed by the core model.

Workload generators yield an endless stream of :class:`TraceItem`; the
core model executes them against the cache hierarchy.  ``gap`` is the
number of non-memory instructions preceding this memory operation, so
cumulative instruction counts (and therefore IPC and MPKI denominators)
are reconstructed exactly.

Generators *produce* either form; the core *consumes* one:

* **Row form** — :class:`TraceItem`, one NamedTuple per memory op: what
  a hand-written generator or :func:`~repro.workloads.tracefile.
  read_trace` yields.
* **Columnar form** — :class:`TraceBatch`, a structure-of-arrays chunk
  (``array('q')``/``array('b')`` columns for gap/addr/pc/is_write).

:func:`as_batched` turns anything into a :class:`BatchedTrace` (row-form
input is chunked by :func:`batch_iter`), and the core reads its
:class:`BatchCursor` column-direct — there is no row-form consumer.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Optional

#: Default number of trace items per columnar batch.  Large enough to
#: amortise per-batch Python overhead.
TRACE_BATCH_SIZE = 1024


class TraceItem(NamedTuple):
    """One memory operation in a program's dynamic instruction stream."""

    gap: int  # non-memory instructions since the previous memory op
    addr: int  # virtual byte address
    is_write: bool
    pc: int  # instruction pointer of the memory op (for stride prefetch)


#: Type alias for what generators produce.
Trace = Iterator[TraceItem]


class TraceBatch:
    """A structure-of-arrays chunk of consecutive trace items.

    Columns are stdlib ``array`` objects: ``'q'`` (signed 64-bit) for
    ``gaps``/``addrs``/``pcs`` and ``'b'`` for ``writes`` (0/1).  Reading
    ``batch.addrs[i]`` costs one C-level index instead of attribute
    access on a per-item object, and whole-column operations (sums,
    comprehensions) run at C iteration speed.
    """

    __slots__ = ("gaps", "addrs", "writes", "pcs", "length")

    def __init__(
        self,
        gaps: Iterable[int],
        addrs: Iterable[int],
        writes: Iterable[int],
        pcs: Iterable[int],
    ) -> None:
        self.gaps = gaps if isinstance(gaps, array) else array("q", gaps)
        self.addrs = addrs if isinstance(addrs, array) else array("q", addrs)
        self.writes = (
            writes if isinstance(writes, array) else array("b", writes)
        )
        self.pcs = pcs if isinstance(pcs, array) else array("q", pcs)
        self.length = len(self.gaps)
        if not (
            len(self.addrs) == len(self.writes) == len(self.pcs)
            == self.length
        ):
            raise ValueError("trace batch columns must have equal length")

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[TraceItem]:
        gaps, addrs, writes, pcs = self.gaps, self.addrs, self.writes, self.pcs
        for i in range(self.length):
            yield TraceItem(gaps[i], addrs[i], bool(writes[i]), pcs[i])

    @property
    def instructions(self) -> int:
        """Total instructions this batch represents (gaps + the ops)."""
        return sum(self.gaps) + self.length


class _BatchIter:
    """Iterator form of :func:`batch_iter` with a cooperative skip.

    Snapshot fast-forward discards every batch before the captured
    position; :meth:`skip_batches` consumes the underlying items
    without packing them into :class:`TraceBatch` columns, which is
    the bulk of this adapter's per-batch cost.
    """

    __slots__ = ("_it", "_size")

    def __init__(self, trace: Iterable[TraceItem], size: int) -> None:
        self._it = iter(trace)
        self._size = size

    def __iter__(self) -> "_BatchIter":
        return self

    def __next__(self) -> TraceBatch:
        chunk = list(islice(self._it, self._size))
        if not chunk:
            raise StopIteration
        return TraceBatch(
            array("q", [item[0] for item in chunk]),
            array("q", [item[1] for item in chunk]),
            array("b", [1 if item[2] else 0 for item in chunk]),
            array("q", [item[3] for item in chunk]),
        )

    def skip_batches(self, count: int) -> None:
        """Drop ``count`` whole batches without materializing them.

        Only valid when every skipped batch is full — guaranteed for
        any position a cursor actually reached, because a partial
        batch can only be the last one a finite trace yields.
        """
        deque(islice(self._it, count * self._size), maxlen=0)


def batch_iter(
    trace: Iterable[TraceItem], size: int = TRACE_BATCH_SIZE
) -> Iterator[TraceBatch]:
    """Chunk any row-form trace into :class:`TraceBatch` objects.

    The adapter between per-item generators and the core's cursor:
    finite traces end with a final partial batch; endless traces chunk
    forever.
    """
    if size < 1:
        raise ValueError("batch size must be >= 1")
    return _BatchIter(trace, size)


class BatchCursor:
    """Mutable read position over a stream of :class:`TraceBatch`.

    The core reads ``cursor.batch`` columns directly at ``cursor.index``
    and bumps the index itself once an op dispatches.
    """

    __slots__ = ("batch", "index", "batches_advanced", "_source")

    def __init__(self, batches: Iterator[TraceBatch]) -> None:
        self._source = batches
        self.batch: Optional[TraceBatch] = None
        self.index = 0
        # Consumption counter for snapshot fast-forward: traces are
        # regenerable, so position == (batches pulled, index within).
        self.batches_advanced = 0

    def advance_batch(self) -> TraceBatch:
        """Load the next batch (raises StopIteration when exhausted)."""
        self.batch = next(self._source)
        self.index = 0
        self.batches_advanced += 1
        return self.batch

    def capture_state(self) -> dict:
        return {
            "v": 1,
            "batches_advanced": self.batches_advanced,
            "index": self.index,
        }

    def restore_state(self, state: dict) -> None:
        """Fast-forward a *fresh* cursor to the captured position.

        The trace stream itself is regenerated deterministically from
        the benchmark spec; position is replayed by pulling the same
        number of batches and seating the intra-batch index.
        """
        from ..common.versioning import check_state_version

        check_state_version(state, 1, "BatchCursor")
        if self.batches_advanced != 0:
            raise ValueError("can only restore a fresh trace cursor")
        target = state["batches_advanced"]
        # Everything before the final batch is discarded anyway; a
        # cooperating source consumes those items without packing them
        # into columns.  Only the batch the cursor actually sits in
        # must be materialized.
        skip = getattr(self._source, "skip_batches", None)
        if skip is not None and target > 1:
            skip(target - 1)
            self.batches_advanced = target - 1
        while self.batches_advanced < target:
            self.advance_batch()
        self.index = state["index"]


class BatchedTrace:
    """A trace held in columnar form: the one form a core executes.

    :meth:`cursor` exposes the :class:`BatchCursor` for the core's
    column-direct reads.
    """

    __slots__ = ("_cursor",)

    def __init__(self, batches: Iterator[TraceBatch]) -> None:
        self._cursor = BatchCursor(iter(batches))

    def cursor(self) -> BatchCursor:
        return self._cursor


def as_batched(
    trace: Iterable[TraceItem], size: int = TRACE_BATCH_SIZE
) -> BatchedTrace:
    """Wrap any trace in columnar form (no-op for BatchedTrace)."""
    if isinstance(trace, BatchedTrace):
        return trace
    return BatchedTrace(batch_iter(trace, size))


def instructions_per_item(trace_sample: Iterable) -> float:
    """Average instructions represented per trace item (gap + the op).

    Accepts any iterable of :class:`TraceItem` and/or :class:`TraceBatch`
    (batches count each contained item) and computes the mean in one
    pass.
    """
    total = 0
    count = 0
    for entry in trace_sample:
        if isinstance(entry, TraceBatch):
            total += entry.instructions
            count += entry.length
        else:
            total += entry.gap + 1
            count += 1
    if count == 0:
        return 0.0
    return total / count
