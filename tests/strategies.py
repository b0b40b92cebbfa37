"""Seeded pure-stdlib generators for property-style tests.

No third-party dependency: everything derives from ``random.Random``
with an explicit seed, so a failing example is reproducible from the
seed alone (and pytest parametrization over seeds gives breadth).
The generators are shared by the checker self-tests, the DRAM property
tests, and the MSHR golden-stats tests.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Iterator, List, Tuple

from repro.dram.timing import (
    DramTiming,
    ddr2_commodity,
    stacked_commodity,
    true_3d,
)

#: The per-array timing parameters a bug could shrink.
TIMING_PARAMS: Tuple[str, ...] = ("t_rcd", "t_cas", "t_rp", "t_ras", "t_wr")

TIMING_PRESETS = (ddr2_commodity, stacked_commodity, true_3d)

#: (gap to previous access, row, is_write)
AccessSeq = List[Tuple[int, int, bool]]


def access_sequence(
    seed: int,
    length: int = 80,
    rows: int = 8,
    max_gap: int = 200,
    write_fraction: float = 0.3,
) -> AccessSeq:
    """A random bank access sequence: mixed gaps, rows, and directions."""
    rng = random.Random(seed)
    return [
        (
            rng.randint(0, max_gap),
            rng.randrange(rows),
            rng.random() < write_fraction,
        )
        for _ in range(length)
    ]


def conflict_stress_sequence(
    seed: int, length: int = 60, rows: int = 2, max_gap: int = 2
) -> AccessSeq:
    """Back-to-back row conflicts with heavy writes.

    Tight gaps keep every access bound by the bank's ready times (tRC,
    tWR via dirty evictions, tCCD) instead of wall-clock gaps, so
    shrinking *any* array t-parameter changes some data time.
    """
    rng = random.Random(seed ^ 0xC0FFEE)
    sequence: AccessSeq = []
    row = 0
    for _ in range(length):
        # Mostly alternate rows (guaranteed conflicts with a 1-entry
        # row-buffer cache), occasionally repeat (row hits exercise tCCD).
        if rng.random() < 0.8:
            row = (row + 1 + rng.randrange(rows - 1)) % rows if rows > 1 else 0
        sequence.append((rng.randint(0, max_gap), row, rng.random() < 0.5))
    return sequence


def address_stream(
    seed: int,
    length: int = 200,
    pattern: str = "mixed",
    line_size: int = 64,
    footprint_lines: int = 512,
) -> List[int]:
    """A stream of line-aligned addresses in a bounded footprint.

    Patterns: ``sequential`` (streaming), ``strided`` (fixed stride),
    ``hot`` (Zipf-ish reuse of a few lines), ``random`` (uniform), and
    ``mixed`` (random interleaving of the others).
    """
    rng = random.Random(seed ^ 0xADD4)
    choices = ("sequential", "strided", "hot", "random")
    if pattern not in choices + ("mixed",):
        raise ValueError(f"unknown pattern {pattern!r}")
    hot_set = [rng.randrange(footprint_lines) for _ in range(8)]
    stride = rng.choice((2, 3, 5, 17))
    stream: List[int] = []
    cursor = rng.randrange(footprint_lines)
    for index in range(length):
        mode = pattern if pattern != "mixed" else choices[rng.randrange(4)]
        if mode == "sequential":
            cursor = (cursor + 1) % footprint_lines
            line = cursor
        elif mode == "strided":
            cursor = (cursor + stride) % footprint_lines
            line = cursor
        elif mode == "hot":
            line = hot_set[rng.randrange(len(hot_set))]
        else:
            line = rng.randrange(footprint_lines)
        stream.append(line * line_size)
    return stream


def random_timing(seed: int) -> DramTiming:
    """A legal timing: a preset, optionally uniformly slowed (never sped up)."""
    rng = random.Random(seed ^ 0x7141)
    timing = rng.choice(TIMING_PRESETS)()
    if rng.random() < 0.5:
        factor = 1.0 + rng.random()  # [1, 2): slower is always legal
        timing = timing.scaled(factor)
    return timing


def shrink_timing(timing: DramTiming, param: str, factor: float = 0.5) -> DramTiming:
    """A copy with one t-parameter shrunk — an *illegal* speedup.

    Keeps the dataclass invariants satisfiable (``t_ras >= t_rcd``) so
    the mutant constructs; the mutation is guaranteed to differ from the
    original (the shrunken value is strictly smaller).
    """
    if param not in TIMING_PARAMS:
        raise ValueError(f"unknown timing parameter {param!r}")
    value = getattr(timing, param)
    shrunk = max(1, round(value * factor))
    if shrunk >= value:
        shrunk = value - 1
    if shrunk < 1:
        raise ValueError(f"{param}={value} cannot shrink further")
    if param == "t_ras":
        shrunk = max(shrunk, timing.t_rcd)
        if shrunk >= value:
            raise ValueError("t_ras cannot shrink below t_rcd")
    return dataclasses.replace(timing, **{param: shrunk})


def timing_mutations(
    timing: DramTiming, factor: float = 0.5
) -> Iterator[Tuple[str, DramTiming]]:
    """Every single-parameter shrink of ``timing`` that constructs."""
    for param in TIMING_PARAMS:
        try:
            yield param, shrink_timing(timing, param, factor)
        except ValueError:
            continue


# ---------------------------------------------------------------------------
# Whole-machine generators: a legal SystemConfig and a benchmark list.
# ---------------------------------------------------------------------------

#: (l1_size, l1_assoc): 32 sets, 32 sets, and 48 sets — the last is not
#: a power of two, which turns the core's inline L1-hit path off.
_L1_SHAPES = ((24 * 1024, 12), (8 * 1024, 4), (12 * 1024, 4))
#: (l2_size, l2_assoc): the stock 12 MiB, and two that keep misses coming.
_L2_SHAPES = ((12 << 20, 24), (1 << 20, 16), (64 * 1024, 8))

#: Benchmarks whose references mostly hit in the L1 (the ``hot_cold``
#: family): a core running one spends its time ROB-limited, not waiting
#: on DRAM.
HIT_BOUND_BENCHMARKS = (
    "apsi", "h264", "mesa", "gzip", "astar", "zeusmp", "bzip2", "vortex",
    "namd",
)


def random_system_config(seed: int, num_cores: int = 4):
    """A legal machine: a paper preset with core/cache/MHA/DRAM knobs
    re-drawn, small enough in every dimension to simulate in a blink."""
    from repro.memctrl.schedulers import SCHEDULERS
    from repro.mshr.factory import ORGANIZATIONS
    from repro.system import config as presets

    rng = random.Random(seed ^ 0x5C0F)
    base = rng.choice((
        presets.config_2d, presets.config_3d, presets.config_3d_wide,
        presets.config_3d_fast, presets.config_dual_mc,
        presets.config_quad_mc,
    ))()
    l1_size, l1_assoc = rng.choice(_L1_SHAPES)
    l2_size, l2_assoc = rng.choice(_L2_SHAPES)
    return base.derive(
        name=f"rand-{seed}",
        num_cores=num_cores,
        dispatch_width=rng.choice((1, 2, 4, 8)),
        rob_size=rng.choice((16, 48, 96, 128)),
        l1_size=l1_size,
        l1_assoc=l1_assoc,
        l1_mshr_entries=rng.choice((1, 2, 8)),
        l1_prefetch=rng.random() < 0.7,
        dtlb_enabled=rng.random() < 0.8,
        dtlb_entries=rng.choice((16, 64)),
        dtlb_walk_penalty=rng.choice((10, 30)),
        l2_size=l2_size,
        l2_assoc=l2_assoc,
        l2_prefetch=rng.random() < 0.7,
        l2_mshr_organization=rng.choice(ORGANIZATIONS),
        l2_mshr_per_bank=rng.choice((2, 8, 32)),
        l2_mshr_dynamic=rng.random() < 0.3,
        row_buffer_entries=rng.choice((1, 4)),
        scheduler=rng.choice(SCHEDULERS),
        dram_page_policy=rng.choice(("open", "open", "closed")),
        dram_mapping_scheme=rng.choice(("page", "xor")),
        dram_capacity=256 << 20,
    )


def random_benchmarks(seed: int, num_cores: int = 4) -> List[str]:
    """One Table-2 benchmark per core; about half are hit-bound."""
    from repro.workloads.benchmarks import BENCHMARKS

    rng = random.Random(seed ^ 0xB3C4)
    everything = sorted(BENCHMARKS)
    return [
        rng.choice(HIT_BOUND_BENCHMARKS if rng.random() < 0.5 else everything)
        for _ in range(num_cores)
    ]
