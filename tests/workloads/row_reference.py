"""Row-form reference generators: the oracle for the trace producers.

One generator per access pattern of :mod:`repro.workloads.synthetic`,
yielding one :class:`~repro.cpu.trace.TraceItem` per memory operation.
They are the straightforward statement of each pattern; the columnar
producers in ``src/`` build the same item stream column-at-a-time, and
``tests/workloads/test_synthetic.py`` holds them to it item for item.
Nothing in the simulator runs these.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.cpu.trace import TraceItem


def _pc(region: int, slot: int) -> int:
    """A stable fake program counter for stride-prefetcher training."""
    return 0x400000 + region * 0x100 + slot * 8


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
