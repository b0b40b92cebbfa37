"""Unit tests for trace capture/replay."""

import itertools

import pytest

from repro.cpu.trace import TraceItem
from repro.workloads import synthetic as syn
from repro.workloads.tracefile import (
    capture,
    read_trace,
    read_trace_batches,
    trace_length,
    write_trace,
)

ITEMS = [
    TraceItem(0, 0x1000, False, 0x400),
    TraceItem(5, 0xDEADBEEF, True, 0x404),
    TraceItem(100, 0x0, False, 0x0),
]


def test_roundtrip(tmp_path):
    path = tmp_path / "trace.txt"
    assert write_trace(ITEMS, path) == 3
    assert list(read_trace(path)) == ITEMS


def test_gzip_roundtrip(tmp_path):
    path = tmp_path / "trace.txt.gz"
    write_trace(ITEMS, path)
    assert list(read_trace(path)) == ITEMS
    # Actually compressed on disk.
    assert path.read_bytes()[:2] == b"\x1f\x8b"


def test_capture_from_generator(tmp_path):
    path = tmp_path / "stream.trace"
    generator = syn.stream_kernel(0, array_bytes=4096,
                                  reads_per_element=1, writes_per_element=1)
    assert capture(generator, 50, path) == 50
    assert trace_length(path) == 50
    replayed = list(read_trace(path))
    fresh = list(itertools.islice(
        syn.stream_kernel(0, array_bytes=4096,
                          reads_per_element=1, writes_per_element=1), 50))
    assert replayed == fresh


def test_loop_replay(tmp_path):
    path = tmp_path / "t.txt"
    write_trace(ITEMS, path)
    looped = list(itertools.islice(read_trace(path, loop=True), 7))
    assert looped == ITEMS + ITEMS + ITEMS[:1]


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# header\n\n0 1000 R 400\n")
    items = list(read_trace(path))
    assert items == [TraceItem(0, 0x1000, False, 0x400)]


def test_malformed_record_raises(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("0 1000 X 400\n")
    with pytest.raises(ValueError, match="malformed"):
        list(read_trace(path))


@pytest.mark.parametrize("record", [
    "0 1000 R",              # too few fields
    "0 1000 R 400 extra",    # too many fields
    "0 zz R 400",            # non-hex address
    "x 1000 R 400",          # non-integer gap
    "0 1000 W 0xzz",         # non-hex pc
])
def test_malformed_variants_name_file_and_line(tmp_path, record):
    path = tmp_path / "t.txt"
    path.write_text(f"# header\n0 1000 R 400\n{record}\n")
    with pytest.raises(ValueError, match=r"t\.txt:3: malformed"):
        list(read_trace(path))


@pytest.mark.parametrize("reader", [read_trace, read_trace_batches])
@pytest.mark.parametrize("record", [
    "-3 1000 R 400",                 # negative gap: dispatch assumes >= 0
    "0 8000000000000000 R 400",      # addr = 2**63: past signed 64-bit
    "0 1000 R ffffffffffffffffff",   # pc past signed 64-bit
    "99999999999999999999 10 R 4",   # gap past signed 64-bit
], ids=["negative-gap", "addr-2e63", "pc-overflow", "gap-overflow"])
def test_out_of_range_records_are_malformed_in_both_readers(
    tmp_path, reader, record
):
    path = tmp_path / "t.txt"
    path.write_text(f"0 1000 R 400\n{record}\n")
    with pytest.raises(ValueError, match=r"t\.txt:2: malformed"):
        list(reader(path))


def test_signed_64_bit_edges_are_accepted(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("0 7fffffffffffffff W -8000000000000000\n")
    assert list(read_trace(path)) == [
        TraceItem(0, (1 << 63) - 1, True, -(1 << 63))
    ]


def test_good_records_before_malformed_are_yielded(tmp_path):
    """Streaming: parsing is lazy, so earlier records arrive first."""
    path = tmp_path / "t.txt"
    path.write_text("3 1000 W 400\nbogus line here\n")
    stream = read_trace(path)
    assert next(stream) == TraceItem(3, 0x1000, True, 0x400)
    with pytest.raises(ValueError, match="malformed"):
        next(stream)


def test_roundtrip_many_random_items(tmp_path):
    import random

    rng = random.Random(99)
    items = [
        TraceItem(
            gap=rng.randrange(0, 500),
            addr=rng.randrange(0, 1 << 48),
            is_write=rng.random() < 0.3,
            pc=rng.randrange(0, 1 << 32),
        )
        for _ in range(2000)
    ]
    path = tmp_path / "big.trace.gz"
    assert write_trace(items, path) == 2000
    assert list(read_trace(path)) == items
    assert trace_length(path) == 2000


def test_eof_without_loop_exhausts_cleanly(tmp_path):
    path = tmp_path / "t.txt"
    write_trace(ITEMS, path)
    stream = read_trace(path)
    for expected in ITEMS:
        assert next(stream) == expected
    with pytest.raises(StopIteration):
        next(stream)
    # A fresh iterator starts over from the first record.
    assert next(read_trace(path)) == ITEMS[0]


def test_truncated_gzip_raises_eof(tmp_path):
    path = tmp_path / "t.trace.gz"
    write_trace(ITEMS * 200, path)
    clipped = tmp_path / "clipped.trace.gz"
    clipped.write_bytes(path.read_bytes()[:-8])  # drop the gzip trailer
    with pytest.raises(EOFError):
        list(read_trace(clipped))


def test_empty_file_raises(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no records"):
        list(read_trace(path))


def test_capture_validation(tmp_path):
    with pytest.raises(ValueError):
        capture(iter([]), 0, tmp_path / "t.txt")


def test_replayed_trace_drives_a_core(tmp_path):
    """End to end: captured trace -> file -> core simulation."""
    from repro.common.address import PageAllocator
    from repro.cache.array import CacheArray
    from repro.cache.l1 import L1Cache
    from repro.cpu.core import Core
    from repro.engine import Engine
    from repro.mshr.conventional import ConventionalMshr

    path = tmp_path / "replay.trace"
    capture(syn.sequential_scan(0, footprint=1 << 20, gap=4), 500, path)

    class InstantL2:
        def __init__(self, engine):
            self.engine = engine

        def access(self, request):
            self.engine.schedule(20, request.complete, self.engine.now + 20)

    engine = Engine()
    l1 = L1Cache(
        engine, 0, CacheArray(4096, 4, 64), ConventionalMshr(8),
        InstantL2(engine),
    )
    core = Core(engine, 0, read_trace(path, loop=True), l1, PageAllocator())
    core.start()
    core.begin_measurement(1_000)
    engine.run(stop_when=lambda: core.frozen, until=10_000_000)
    assert core.frozen
    assert core.frozen_ipc > 0


# ----------------------------------------------------------------------
# Columnar streaming (read_trace_batches)
# ----------------------------------------------------------------------

def _flatten(batches):
    return [item for batch in batches for item in batch]


@pytest.mark.parametrize("batch_size", [1, 2, 3, 1024])
def test_read_trace_batches_matches_row_reader(tmp_path, batch_size):
    path = tmp_path / "t.txt"
    write_trace(ITEMS, path)
    batches = list(read_trace_batches(path, batch_size=batch_size))
    assert _flatten(batches) == list(read_trace(path))
    # Every batch is full except possibly the file's tail.
    assert all(len(b) == batch_size for b in batches[:-1])


def test_read_trace_batches_gzip(tmp_path):
    path = tmp_path / "t.trace.gz"
    write_trace(ITEMS, path)
    assert _flatten(read_trace_batches(path, batch_size=2)) == ITEMS


def test_read_trace_batches_loop_restarts_at_wrap(tmp_path):
    path = tmp_path / "t.txt"
    write_trace(ITEMS, path)
    stream = read_trace_batches(path, batch_size=2, loop=True)
    batches = list(itertools.islice(stream, 7))
    # 3 items per pass at size 2 -> batches of 2, 1 then wrap.
    assert [len(b) for b in batches] == [2, 1, 2, 1, 2, 1, 2]
    assert _flatten(batches) == ITEMS + ITEMS + ITEMS + ITEMS[:2]


def test_read_trace_batches_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# header\n\n0 1000 R 400\n\n# tail\n5 2000 W 404\n")
    (batch,) = read_trace_batches(path, batch_size=16)
    assert list(batch) == [
        TraceItem(0, 0x1000, False, 0x400),
        TraceItem(5, 0x2000, True, 0x404),
    ]


def test_read_trace_batches_malformed_and_empty_raise(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("0 1000 X 400\n")
    with pytest.raises(ValueError, match="malformed"):
        list(read_trace_batches(path))
    path.write_text("# only comments\n")
    with pytest.raises(ValueError, match="no records"):
        list(read_trace_batches(path))
    with pytest.raises(ValueError, match="batch_size"):
        next(read_trace_batches(path, batch_size=0))


def test_read_trace_batches_feeds_batched_machine(tmp_path):
    """A captured file replayed in columnar form is a valid batch source."""
    from repro.cpu.trace import BatchedTrace

    generator = syn.stream_kernel(0, array_bytes=4096,
                                  reads_per_element=1, writes_per_element=1)
    path = tmp_path / "stream.trace"
    capture(generator, 200, path)
    cursor = BatchedTrace(read_trace_batches(path, batch_size=64)).cursor()
    items = []
    while len(items) < 200:
        items.extend(cursor.advance_batch())
    assert items == list(read_trace(path))
    with pytest.raises(StopIteration):
        cursor.advance_batch()


def test_read_trace_batches_throughput(tmp_path):
    """Regression guard: the columnar reader must not fall behind the
    per-item reader (in practice it is well ahead; the slack absorbs
    timer noise on shared CI hosts)."""
    import time

    generator = syn.stream_kernel(0, array_bytes=1 << 20,
                                  reads_per_element=2, writes_per_element=1)
    path = tmp_path / "big.trace"
    n = capture(generator, 20_000, path)

    def consume_rows():
        count = 0
        for _ in read_trace(path):
            count += 1
        return count

    def consume_batches():
        count = 0
        for batch in read_trace_batches(path, batch_size=1024):
            count += len(batch)
        return count

    # Warm the page cache so the first timed pass isn't penalised.
    assert consume_rows() == n
    start = time.perf_counter()
    assert consume_rows() == n
    row_seconds = time.perf_counter() - start
    start = time.perf_counter()
    assert consume_batches() == n
    batch_seconds = time.perf_counter() - start
    assert batch_seconds < row_seconds * 1.5, (
        f"columnar reader regressed: {batch_seconds:.3f}s vs "
        f"row reader {row_seconds:.3f}s over {n} records"
    )
