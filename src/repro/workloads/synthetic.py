"""Synthetic memory-trace generators.

Each generator yields an endless stream of
:class:`~repro.cpu.trace.TraceItem` reproducing one qualitative access
pattern; :mod:`repro.workloads.benchmarks` parameterizes them so that the
single-core 6 MiB-L2 MPKI lands in each Table-2 benchmark's band.

All generators are deterministic given their seed, and confine their
addresses to ``[base, base + footprint)`` so per-core virtual spaces are
disjoint (the machine namespaces ``base`` by core).
"""

from __future__ import annotations

import random
from array import array
from typing import Iterator

from ..cpu.trace import TRACE_BATCH_SIZE, TraceBatch, TraceItem

LINE = 64  # for documentation; generators do not depend on the line size


def _pc(region: int, slot: int) -> int:
    """A stable fake program counter for stride-prefetcher training."""
    return 0x400000 + region * 0x100 + slot * 8


def _swept(out: array, base: int, offset: int, stride: int, region: int,
           count: int) -> int:
    """Append ``count`` stride-swept addresses to ``out``; returns the
    final offset.

    Reproduces ``offset = (offset + stride) % region`` per item, but
    emits each wrap-free span as one C-level ``extend(range(...))``.
    """
    while count:
        span = (region - offset + stride - 1) // stride
        if span > count:
            span = count
        start = base + offset
        out.extend(range(start, start + span * stride, stride))
        offset = (offset + span * stride) % region
        count -= span
    return offset


def stream_kernel(
    base: int,
    array_bytes: int,
    reads_per_element: int,
    writes_per_element: int,
    element_size: int = 8,
    gap: int = 0,
) -> Iterator[TraceItem]:
    """A STREAM-style kernel: sequential sweeps over disjoint arrays.

    ``copy`` is one read + one write array; ``add``/``triad`` read two
    arrays and write a third.  Arrays are swept in lockstep forever,
    which is exactly how the Stream benchmark iterates.
    """
    if reads_per_element < 0 or writes_per_element < 0:
        raise ValueError("element access counts cannot be negative")
    if reads_per_element + writes_per_element == 0:
        raise ValueError("kernel must access memory")
    num_arrays = reads_per_element + writes_per_element
    elements = max(1, array_bytes // element_size)
    arrays = [base + i * array_bytes for i in range(num_arrays)]
    while True:
        for element in range(elements):
            offset = element * element_size
            slot = 0
            for read_idx in range(reads_per_element):
                yield TraceItem(gap, arrays[read_idx] + offset, False, _pc(0, slot))
                slot += 1
            for write_idx in range(writes_per_element):
                yield TraceItem(
                    gap,
                    arrays[reads_per_element + write_idx] + offset,
                    True,
                    _pc(0, slot),
                )
                slot += 1


def stream_kernel_batches(
    base: int,
    array_bytes: int,
    reads_per_element: int,
    writes_per_element: int,
    element_size: int = 8,
    gap: int = 0,
    batch_size: int = TRACE_BATCH_SIZE,
) -> Iterator[TraceBatch]:
    """Columnar :func:`stream_kernel`: the identical item stream, emitted
    as :class:`TraceBatch` chunks built column-at-a-time.

    Batches are sized to a whole number of elements so every batch
    starts at access slot 0; per-slot address columns then become pure
    arithmetic progressions filled with extended-slice assignment.
    """
    if reads_per_element < 0 or writes_per_element < 0:
        raise ValueError("element access counts cannot be negative")
    if reads_per_element + writes_per_element == 0:
        raise ValueError("kernel must access memory")
    num_arrays = reads_per_element + writes_per_element
    elements = max(1, array_bytes // element_size)
    arrays = [base + i * array_bytes for i in range(num_arrays)]
    per_batch = max(1, batch_size // num_arrays)
    length = per_batch * num_arrays
    region = elements * element_size
    gaps = array("q", [gap]) * length
    pc_cols = [
        array("q", [_pc(0, slot)]) * per_batch for slot in range(num_arrays)
    ]
    write_cols = [
        array("b", [1 if slot >= reads_per_element else 0]) * per_batch
        for slot in range(num_arrays)
    ]
    offset = 0
    while True:
        addrs = array("q", bytes(8 * length))
        pcs = array("q", bytes(8 * length))
        writes = array("b", bytes(length))
        next_offset = offset
        for slot in range(num_arrays):
            col = array("q")
            next_offset = _swept(
                col, arrays[slot], offset, element_size, region, per_batch
            )
            addrs[slot::num_arrays] = col
            pcs[slot::num_arrays] = pc_cols[slot]
            writes[slot::num_arrays] = write_cols[slot]
        offset = next_offset
        yield TraceBatch(gaps, addrs, writes, pcs)


def _batch_slice(batch: TraceBatch, start: int, stop: int) -> TraceBatch:
    """A new :class:`TraceBatch` holding items ``[start, stop)`` of ``batch``."""
    return TraceBatch(
        batch.gaps[start:stop],
        batch.addrs[start:stop],
        batch.writes[start:stop],
        batch.pcs[start:stop],
    )


def stream_all(
    base: int, array_bytes: int, element_size: int = 8, gap: int = 0
) -> Iterator[TraceItem]:
    """The composite Stream benchmark: copy, scale, add, triad in rotation."""
    kernels = [
        stream_kernel(base, array_bytes, 1, 1, element_size, gap),  # copy
        stream_kernel(base + 4 * array_bytes, array_bytes, 1, 1, element_size, gap),
        stream_kernel(base + 8 * array_bytes, array_bytes, 2, 1, element_size, gap),
        stream_kernel(base + 12 * array_bytes, array_bytes, 2, 1, element_size, gap),
    ]
    elements = max(1, array_bytes // element_size)
    # Run each kernel for one array sweep, then move to the next.
    per_kernel = [elements * n for n in (2, 2, 3, 3)]
    while True:
        for kernel, count in zip(kernels, per_kernel):
            for _ in range(count):
                yield next(kernel)


def stream_all_batches(
    base: int,
    array_bytes: int,
    element_size: int = 8,
    gap: int = 0,
    batch_size: int = TRACE_BATCH_SIZE,
) -> Iterator[TraceBatch]:
    """Columnar :func:`stream_all`: identical item stream as batches.

    Each rotation segment drains exactly ``per_kernel`` items from that
    kernel's columnar producer.  Segment lengths need not divide the
    producer's batch length, so a partial tail batch is buffered and
    emitted first at the kernel's next turn — the kernels keep their
    sweep position across rotations, exactly like the per-item version.
    """
    producers = [
        stream_kernel_batches(
            base, array_bytes, 1, 1, element_size, gap, batch_size),
        stream_kernel_batches(
            base + 4 * array_bytes, array_bytes, 1, 1, element_size, gap,
            batch_size),
        stream_kernel_batches(
            base + 8 * array_bytes, array_bytes, 2, 1, element_size, gap,
            batch_size),
        stream_kernel_batches(
            base + 12 * array_bytes, array_bytes, 2, 1, element_size, gap,
            batch_size),
    ]
    elements = max(1, array_bytes // element_size)
    per_kernel = [elements * n for n in (2, 2, 3, 3)]
    leftovers: list = [None] * len(producers)
    while True:
        for idx, count in enumerate(per_kernel):
            need = count
            pending = leftovers[idx]
            leftovers[idx] = None
            while need:
                batch = pending if pending is not None else next(producers[idx])
                pending = None
                if batch.length <= need:
                    need -= batch.length
                    yield batch
                else:
                    yield _batch_slice(batch, 0, need)
                    leftovers[idx] = _batch_slice(batch, need, batch.length)
                    need = 0


def sequential_scan(
    base: int,
    footprint: int,
    stride: int = 64,
    gap: int = 5,
    write_fraction: float = 0.0,
    seed: int = 1,
) -> Iterator[TraceItem]:
    """Linear scan over a large region (tigr/mummer-style genome scans)."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    rng = random.Random(seed)
    offset = 0
    while True:
        addr = base + offset
        is_write = rng.random() < write_fraction
        yield TraceItem(gap, addr, is_write, _pc(1, 0))
        offset = (offset + stride) % footprint


def sequential_scan_batches(
    base: int,
    footprint: int,
    stride: int = 64,
    gap: int = 5,
    write_fraction: float = 0.0,
    seed: int = 1,
    batch_size: int = TRACE_BATCH_SIZE,
) -> Iterator[TraceBatch]:
    """Columnar :func:`sequential_scan`: identical item stream as batches.

    The address column is filled by wrap-free ``range`` spans.  With a
    zero ``write_fraction`` the per-item RNG draw (``random() < 0.0``,
    always False) is skipped entirely — the RNG is private to this
    generator, so the emitted stream is unchanged.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    rng = random.Random(seed)
    rnd = rng.random
    gaps = array("q", [gap]) * batch_size
    pcs = array("q", [_pc(1, 0)]) * batch_size
    no_writes = array("b", [0]) * batch_size if write_fraction <= 0.0 else None
    offset = 0
    while True:
        addrs = array("q")
        offset = _swept(addrs, base, offset, stride, footprint, batch_size)
        if no_writes is not None:
            writes = no_writes
        else:
            writes = array(
                "b",
                (
                    1 if rnd() < write_fraction else 0
                    for _ in range(batch_size)
                ),
            )
        yield TraceBatch(gaps, addrs, writes, pcs)


def random_uniform(
    base: int,
    footprint: int,
    gap: int = 5,
    write_fraction: float = 0.0,
    seed: int = 2,
    rmw: bool = False,
) -> Iterator[TraceItem]:
    """Uniformly random line-granularity accesses (qsort partitioning).

    With ``rmw`` each location is read then written (swap traffic).
    """
    rng = random.Random(seed)
    lines = max(1, footprint // 64)
    while True:
        addr = base + rng.randrange(lines) * 64 + rng.randrange(8) * 8
        if rmw:
            yield TraceItem(gap, addr, False, _pc(2, 0))
            yield TraceItem(gap, addr, True, _pc(2, 1))
        else:
            yield TraceItem(gap, addr, rng.random() < write_fraction, _pc(2, 0))


def random_uniform_batches(
    base: int,
    footprint: int,
    gap: int = 5,
    write_fraction: float = 0.0,
    seed: int = 2,
    rmw: bool = False,
    batch_size: int = TRACE_BATCH_SIZE,
) -> Iterator[TraceBatch]:
    """Columnar :func:`random_uniform`: identical item stream as batches.

    ``rng.randrange(n)`` is spelled out as the ``getrandbits`` rejection
    loop it runs internally, so the RNG is drawn in exactly the row
    generator's order.  With ``rmw`` the read/write pair may straddle a
    batch boundary; the write half then opens the next batch.
    """
    rng = random.Random(seed)
    rnd = rng.random
    getrandbits = rng.getrandbits
    lines = max(1, footprint // 64)
    line_bits = lines.bit_length()
    gaps = array("q", [gap]) * batch_size
    pc_read, pc_write = _pc(2, 0), _pc(2, 1)
    carried = None  # address whose write half is still owed (rmw only)
    while True:
        addrs = array("q", bytes(8 * batch_size))
        writes = array("b", bytes(batch_size))
        pcs = array("q", [pc_read]) * batch_size
        i = 0
        if carried is not None:
            addrs[0] = carried
            writes[0] = 1
            pcs[0] = pc_write
            carried = None
            i = 1
        while i < batch_size:
            line = getrandbits(line_bits)
            while line >= lines:
                line = getrandbits(line_bits)
            word = getrandbits(4)
            while word >= 8:
                word = getrandbits(4)
            addr = base + line * 64 + word * 8
            addrs[i] = addr
            if not rmw:
                if rnd() < write_fraction:
                    writes[i] = 1
            elif i + 1 < batch_size:
                i += 1
                addrs[i] = addr
                writes[i] = 1
                pcs[i] = pc_write
            else:
                carried = addr
            i += 1
        yield TraceBatch(gaps, addrs, writes, pcs)


def pointer_chase(
    base: int,
    footprint: int,
    gap: int = 10,
    seed: int = 3,
    write_fraction: float = 0.0,
) -> Iterator[TraceItem]:
    """Dependent-looking pseudo-random walk (mcf/omnetpp graph chasing).

    A full-period LCG over the line indices visits every line once per
    footprint pass in an unpredictable order — random misses with zero
    spatial locality, like chasing cold pointers.
    """
    lines = max(4, footprint // 64)
    # Force a power-of-two modulus so the LCG (a=5, c=odd) has full period.
    modulus = 1 << (lines - 1).bit_length()
    state = seed % modulus
    rng = random.Random(seed)
    while True:
        state = (5 * state + 12345) % modulus
        if state >= lines:
            continue
        addr = base + state * 64
        yield TraceItem(gap, addr, rng.random() < write_fraction, _pc(3, 0))


def pointer_chase_batches(
    base: int,
    footprint: int,
    gap: int = 10,
    seed: int = 3,
    write_fraction: float = 0.0,
    batch_size: int = TRACE_BATCH_SIZE,
) -> Iterator[TraceBatch]:
    """Columnar :func:`pointer_chase`: identical item stream as batches.

    The LCG advance (including rejected states ``>= lines``) runs in a
    tight local-variable loop; the write column draws the RNG once per
    *emitted* item in emission order, matching the per-item generator
    draw for draw (the LCG never touches the RNG, so hoisting the draws
    after the address column preserves the sequence).
    """
    lines = max(4, footprint // 64)
    modulus = 1 << (lines - 1).bit_length()
    mask = modulus - 1
    state = seed % modulus
    rng = random.Random(seed)
    rnd = rng.random
    gaps = array("q", [gap]) * batch_size
    pcs = array("q", [_pc(3, 0)]) * batch_size
    no_writes = array("b", [0]) * batch_size if write_fraction <= 0.0 else None
    while True:
        addrs = array("q", bytes(8 * batch_size))
        for i in range(batch_size):
            while True:
                state = (5 * state + 12345) & mask
                if state < lines:
                    break
            addrs[i] = base + state * 64
        if no_writes is not None:
            writes = no_writes
        else:
            writes = array(
                "b",
                (
                    1 if rnd() < write_fraction else 0
                    for _ in range(batch_size)
                ),
            )
        yield TraceBatch(gaps, addrs, writes, pcs)


def strided(
    base: int,
    footprint: int,
    stride: int,
    gap: int,
    write_fraction: float = 0.0,
    seed: int = 4,
    num_streams: int = 3,
) -> Iterator[TraceItem]:
    """Fixed-stride sweeps (dense linear algebra: milc, applu, mgrid).

    Real scientific kernels walk several arrays concurrently (operands
    and results), so the generator round-robins ``num_streams`` disjoint
    regions.  This matters to the memory system: concurrent streams
    spread in-flight misses across pages, and therefore across banks,
    memory controllers and MSHR banks.
    """
    if num_streams < 1:
        raise ValueError("need at least one stream")
    rng = random.Random(seed)
    region = footprint // num_streams
    offsets = [0] * num_streams
    pcs = [_pc(4, (stride + s) % 11) for s in range(num_streams)]
    while True:
        for s in range(num_streams):
            addr = base + s * region + offsets[s]
            yield TraceItem(gap, addr, rng.random() < write_fraction, pcs[s])
            offsets[s] = (offsets[s] + stride) % region


def strided_batches(
    base: int,
    footprint: int,
    stride: int,
    gap: int,
    write_fraction: float = 0.0,
    seed: int = 4,
    num_streams: int = 3,
    batch_size: int = TRACE_BATCH_SIZE,
) -> Iterator[TraceBatch]:
    """Columnar :func:`strided`: identical item stream as batches.

    Batches hold a whole number of round-robin rounds so every batch
    starts at stream 0; each stream's address column is then a set of
    wrap-free ``range`` spans written with extended-slice assignment.
    The write column draws the RNG once per item in emission order
    (matching the per-item generator draw for draw), skipped entirely
    when ``write_fraction`` is zero.
    """
    if num_streams < 1:
        raise ValueError("need at least one stream")
    rng = random.Random(seed)
    rnd = rng.random
    region = footprint // num_streams
    per_batch = max(1, batch_size // num_streams)
    length = per_batch * num_streams
    gaps = array("q", [gap]) * length
    pc_cols = [
        array("q", [_pc(4, (stride + s) % 11)]) * per_batch
        for s in range(num_streams)
    ]
    bases = [base + s * region for s in range(num_streams)]
    offsets = [0] * num_streams
    no_writes = array("b", [0]) * length if write_fraction <= 0.0 else None
    while True:
        addrs = array("q", bytes(8 * length))
        pcs = array("q", bytes(8 * length))
        for s in range(num_streams):
            col = array("q")
            offsets[s] = _swept(
                col, bases[s], offsets[s], stride, region, per_batch
            )
            addrs[s::num_streams] = col
            pcs[s::num_streams] = pc_cols[s]
        if no_writes is not None:
            writes = no_writes
        else:
            writes = array(
                "b",
                (1 if rnd() < write_fraction else 0 for _ in range(length)),
            )
        yield TraceBatch(gaps, addrs, writes, pcs)


def hot_cold(
    base: int,
    hot_bytes: int,
    cold_bytes: int,
    cold_fraction: float,
    gap: int = 9,
    write_fraction: float = 0.2,
    seed: int = 5,
) -> Iterator[TraceItem]:
    """Cache-friendly core working set with occasional cold excursions.

    Models the moderate-MPKI applications: almost all accesses land in a
    small hot set that caches well (it warms within a few thousand
    references, so results are stable at short simulation scales); only
    the ``cold_fraction`` of accesses that touch the cold region (random,
    huge) generate L2 misses.  The L2 MPKI is therefore approximately
    ``cold_fraction * 1000 / (gap + 1)``.
    """
    if not 0.0 <= cold_fraction <= 1.0:
        raise ValueError("cold_fraction must be within [0, 1]")
    rng = random.Random(seed)
    hot_lines = max(1, hot_bytes // 64)
    cold_lines = max(1, cold_bytes // 64)
    cold_base = base + hot_bytes
    while True:
        is_write = rng.random() < write_fraction
        if rng.random() < cold_fraction:
            addr = cold_base + rng.randrange(cold_lines) * 64
            yield TraceItem(gap, addr, is_write, _pc(5, 1))
        else:
            addr = base + rng.randrange(hot_lines) * 64
            yield TraceItem(gap, addr, is_write, _pc(5, 0))


def hot_cold_batches(
    base: int,
    hot_bytes: int,
    cold_bytes: int,
    cold_fraction: float,
    gap: int = 9,
    write_fraction: float = 0.2,
    seed: int = 5,
    batch_size: int = TRACE_BATCH_SIZE,
) -> Iterator[TraceBatch]:
    """Columnar :func:`hot_cold`: identical item stream as batches.

    One RNG feeds three draws per item (write?, cold?, which line) whose
    order the row generator fixes, so the loop below keeps that order
    and only strips the per-item generator/NamedTuple machinery;
    ``rng.randrange(n)`` is spelled out as the ``getrandbits`` rejection
    loop it runs internally.
    """
    if not 0.0 <= cold_fraction <= 1.0:
        raise ValueError("cold_fraction must be within [0, 1]")
    rng = random.Random(seed)
    rnd = rng.random
    getrandbits = rng.getrandbits
    hot_lines = max(1, hot_bytes // 64)
    cold_lines = max(1, cold_bytes // 64)
    hot_bits = hot_lines.bit_length()
    cold_bits = cold_lines.bit_length()
    cold_base = base + hot_bytes
    gaps = array("q", [gap]) * batch_size
    pc_hot, pc_cold = _pc(5, 0), _pc(5, 1)
    while True:
        addrs = array("q", bytes(8 * batch_size))
        writes = array("b", bytes(batch_size))
        pcs = array("q", [pc_hot]) * batch_size
        for i in range(batch_size):
            if rnd() < write_fraction:
                writes[i] = 1
            if rnd() < cold_fraction:
                line = getrandbits(cold_bits)
                while line >= cold_lines:
                    line = getrandbits(cold_bits)
                addrs[i] = cold_base + line * 64
                pcs[i] = pc_cold
            else:
                line = getrandbits(hot_bits)
                while line >= hot_lines:
                    line = getrandbits(hot_bits)
                addrs[i] = base + line * 64
        yield TraceBatch(gaps, addrs, writes, pcs)

