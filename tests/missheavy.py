"""Miss-heavy synthetic workloads for the trace-producer differential.

The DRAM-bound inputs of ``tests/integration/test_batched_equivalence.py``
(the same items at two batch sizes): deep MRQs, blocked cores, refresh
interaction.  Each mix stresses one part of the
memory controller's pump and the bank timing under it:

``streaming``
    Line-stride scans over a multi-megabyte span: every reference is a
    new line, MSHRs and the MRQ fill with overlapping misses, and the
    cores ROB-block — a saturated MRQ.
``pointer-chase``
    A full-period LCG walk with zero memory-level parallelism: the MRQ
    holds at most one entry per core (the shallow-queue case).
``row-conflict-max``
    Row-size strides so consecutive DRAM commands open a new row every
    time: exercises the activate/precharge arithmetic.
``refresh-straddling``
    Sparse accesses separated by long instruction gaps: issues keep
    running into refresh blackouts.

Each mix is registered as a looping finite item list (same idiom as the
randomized equivalence property tests), chunked by ``batch_iter`` at a
caller-chosen batch size so batch-boundary behaviour is covered too.
Use :func:`register_miss_heavy` / :func:`unregister` around runs.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.cpu.trace import TraceItem, batch_iter
from repro.workloads.benchmarks import BENCHMARKS, BenchmarkSpec

#: The mix kinds, in a stable order (the tests iterate this).
MISS_HEAVY_KINDS: Tuple[str, ...] = (
    "streaming",
    "pointer-chase",
    "row-conflict-max",
    "refresh-straddling",
)

_ITEMS = 2_500


def _items_streaming(seed: int) -> List[Tuple[int, int, int, int]]:
    rng = random.Random(seed)
    items = []
    addr = 0
    span = 8 * 1024 * 1024
    for index in range(_ITEMS):
        addr = (addr + 64) % span
        items.append((
            rng.randrange(0, 2),
            addr,
            1 if rng.random() < 0.25 else 0,
            0x400 + 4 * (index % 4),
        ))
    return items


def _items_pointer_chase(seed: int) -> List[Tuple[int, int, int, int]]:
    # Full-period LCG over 2^18 slots of 64 B (16 MiB): a dependent
    # chain with one outstanding miss at a time.
    slots = 1 << 18
    state = seed % slots
    items = []
    for _ in range(_ITEMS):
        state = (state * 1664525 + 1013904223) % slots
        items.append((0, state * 64, 0, 0x800))
    return items


def _items_row_conflict(seed: int) -> List[Tuple[int, int, int, int]]:
    # 8 KiB strides: every access lands on a fresh DRAM row (and a fresh
    # page), so the command stream is all activates.
    rng = random.Random(seed)
    items = []
    addr = 0
    span = 64 * 1024 * 1024
    for index in range(_ITEMS):
        addr = (addr + 8 * 1024) % span
        items.append((
            rng.randrange(0, 3),
            addr,
            1 if rng.random() < 0.3 else 0,
            0x900 + 4 * (index % 3),
        ))
    return items


def _items_refresh_straddle(seed: int) -> List[Tuple[int, int, int, int]]:
    # Sparse misses with long instruction gaps between them: the memory
    # system idles across refresh-interval boundaries, so issues tend
    # to land in or next to a refresh blackout.
    rng = random.Random(seed)
    items = []
    addr = 0
    span = 16 * 1024 * 1024
    for _ in range(_ITEMS):
        addr = (addr + 64 * rng.randrange(1, 64)) % span
        items.append((rng.randrange(200, 2_000), addr, 0, 0xa00))
    return items


_BUILDERS = {
    "streaming": _items_streaming,
    "pointer-chase": _items_pointer_chase,
    "row-conflict-max": _items_row_conflict,
    "refresh-straddling": _items_refresh_straddle,
}


def benchmark_name(kind: str, seed: int, batch_size: int) -> str:
    return f"_missheavy_{kind}_s{seed}_b{batch_size}"


def register_miss_heavy(kind: str, seed: int, batch_size: int) -> str:
    """Register one looping miss-heavy benchmark; returns its name."""
    builder = _BUILDERS.get(kind)
    if builder is None:
        raise ValueError(
            f"unknown miss-heavy kind {kind!r}; known: {', '.join(MISS_HEAVY_KINDS)}"
        )
    items = builder(seed)

    def rows(base):
        while True:
            for gap, addr, is_write, pc in items:
                yield TraceItem(gap, base + addr, bool(is_write), pc)

    name = benchmark_name(kind, seed, batch_size)
    BENCHMARKS[name] = BenchmarkSpec(
        name, "MissHeavy", 0.0,
        lambda base, _seed: batch_iter(rows(base), size=batch_size),
        base_cpi=0.5,
    )
    return name


def register_all(seed: int, batch_size: int) -> Dict[str, str]:
    """Register every kind; returns {kind: benchmark name}."""
    return {
        kind: register_miss_heavy(kind, seed, batch_size)
        for kind in MISS_HEAVY_KINDS
    }


def unregister(names) -> None:
    if isinstance(names, str):
        names = [names]
    elif isinstance(names, dict):
        names = list(names.values())
    for name in names:
        BENCHMARKS.pop(name, None)
