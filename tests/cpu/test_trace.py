"""Unit tests for trace primitives (row and columnar forms)."""

import pytest

from repro.cpu.trace import (
    BatchedTrace,
    TraceBatch,
    TraceItem,
    as_batched,
    batch_iter,
    instructions_per_item,
)

ITEMS = [
    TraceItem(0, 0x1000, False, 0x400),
    TraceItem(4, 0x1040, True, 0x404),
    TraceItem(2, 0x2000, False, 0x408),
    TraceItem(7, 0x2040, True, 0x40C),
    TraceItem(0, 0x3000, False, 0x410),
]


def test_trace_item_fields():
    item = TraceItem(gap=3, addr=0x1000, is_write=True, pc=0x400)
    assert item.gap == 3
    assert item.addr == 0x1000
    assert item.is_write
    assert item.pc == 0x400


def test_instructions_per_item():
    sample = [TraceItem(0, 0, False, 0), TraceItem(4, 0, False, 0)]
    # (0+1 + 4+1) / 2
    assert instructions_per_item(sample) == 3.0
    assert instructions_per_item([]) == 0.0


def test_instructions_per_item_accepts_any_iterable():
    # A generator (single-pass iterable) must work — the one-pass
    # contract means no len() or second traversal.
    gen = (TraceItem(g, 0, False, 0) for g in (1, 3))
    assert instructions_per_item(gen) == 3.0


def test_instructions_per_item_counts_batches():
    batch = batch_iter(ITEMS, size=len(ITEMS)).__next__()
    expected = sum(i.gap + 1 for i in ITEMS) / len(ITEMS)
    assert instructions_per_item([batch]) == expected
    # Mixed row items and batches accumulate into one mean.
    mixed = [ITEMS[0], batch]
    total = (ITEMS[0].gap + 1) + sum(i.gap + 1 for i in ITEMS)
    assert instructions_per_item(mixed) == total / (1 + len(ITEMS))


def test_trace_batch_columns_and_row_views():
    batch = TraceBatch(
        [i.gap for i in ITEMS],
        [i.addr for i in ITEMS],
        [1 if i.is_write else 0 for i in ITEMS],
        [i.pc for i in ITEMS],
    )
    assert len(batch) == len(ITEMS)
    assert list(batch) == ITEMS
    assert batch.instructions == sum(i.gap + 1 for i in ITEMS)


def test_trace_batch_rejects_ragged_columns():
    with pytest.raises(ValueError):
        TraceBatch([0, 1], [0x0], [0], [0x0])


@pytest.mark.parametrize("size", [1, 2, 3, 1024])
def test_batch_iter_chunks_and_preserves_order(size):
    batches = list(batch_iter(ITEMS, size=size))
    assert [len(b) for b in batches[:-1]] == [size] * (len(batches) - 1)
    assert sum(len(b) for b in batches) == len(ITEMS)
    flattened = [item for b in batches for item in b]
    assert flattened == ITEMS


def test_batch_iter_rejects_bad_size():
    with pytest.raises(ValueError):
        next(batch_iter(ITEMS, size=0))


def _drain(trace: BatchedTrace):
    """Every item a core would read, pulled through the cursor."""
    cursor = trace.cursor()
    items = []
    while True:
        try:
            items.extend(cursor.advance_batch())
        except StopIteration:
            return items


def test_batched_trace_cursor_reads_the_source_in_order():
    trace = BatchedTrace(batch_iter(ITEMS, size=2))
    cursor = trace.cursor()
    assert cursor.batch is None and cursor.batches_advanced == 0
    assert _drain(trace) == ITEMS
    assert cursor.batches_advanced == 3
    with pytest.raises(StopIteration):
        cursor.advance_batch()


def test_as_batched_is_idempotent():
    trace = as_batched(ITEMS, size=2)
    assert as_batched(trace) is trace
    assert _drain(trace) == ITEMS
