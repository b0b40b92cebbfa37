"""Batched-vs-scalar equivalence: the trace form changes nothing.

A core reads a columnar ``TraceBatch`` stream through a cursor and a
row-form trace through an iterator; both feed the one dispatch path, so
every stat table must be bit-identical between them.  These property
tests drive both forms over randomized traces that mix L1 hits, misses,
writes and TLB misses, at batch sizes chosen to stress batch boundaries
(1, 2, odd, huge), and diff the complete stat dump.  The miss-heavy
half of this file repeats the differential on DRAM-bound inputs.
"""

import random

import pytest

from repro.cpu.trace import batch_iter
from repro.system.config import config_2d
from repro.system.machine import Machine
from repro.workloads.benchmarks import BENCHMARKS, BenchmarkSpec

_WARMUP = 1_000
_MEASURE = 4_000


def _random_items(seed: int):
    """Finite random mix, replayed in a loop as an endless trace.

    ~80% of references walk a small hot footprint (L1 hits once warm),
    the rest jump across a 32 MiB span (L1/L2 misses and TLB misses);
    ~30% are writes; PCs rotate through a handful of sites so the
    stride prefetcher sees both stable and broken patterns.
    """
    rng = random.Random(seed)
    pcs = [0x400 + 4 * i for i in range(6)]
    items = []
    hot_base = 0x10_0000
    for _ in range(3_000):
        if rng.random() < 0.8:
            addr = hot_base + rng.randrange(0, 8 * 1024)
        else:
            addr = rng.randrange(0, 32 * 1024 * 1024)
        items.append((
            rng.randrange(0, 6),              # gap
            addr,
            1 if rng.random() < 0.3 else 0,   # is_write
            rng.choice(pcs),
        ))
    return items


def _register(name: str, seed: int, batch_size: int) -> str:
    from repro.cpu.trace import TraceItem

    items = _random_items(seed)

    def factory(base, _seed):
        while True:
            for gap, addr, w, pc in items:
                yield TraceItem(gap, base + addr, bool(w), pc)

    BENCHMARKS[name] = BenchmarkSpec(
        name, "Micro", 0.0, factory, base_cpi=0.5,
        batch_factory=lambda base, seed: batch_iter(
            factory(base, seed), size=batch_size
        ),
    )
    return name


@pytest.fixture
def random_benchmark(request):
    seed, batch_size = request.param
    name = f"_randmix_s{seed}_b{batch_size}"
    _register(name, seed, batch_size)
    yield name
    BENCHMARKS.pop(name, None)


def _run(name: str, batched: bool):
    config = config_2d().derive(name="2D-1c", num_cores=1)
    machine = Machine(
        config, [name], seed=7, workload_name=name, batched=batched
    )
    result = machine.run(
        warmup_instructions=_WARMUP, measure_instructions=_MEASURE
    )
    return result, machine.registry.dump(), machine


@pytest.mark.parametrize(
    "random_benchmark",
    [(11, 1), (11, 2), (23, 7), (23, 4096)],
    indirect=True,
    ids=["batch1", "batch2", "batch-odd", "batch-huge"],
)
def test_random_mix_stats_bit_identical(random_benchmark):
    scalar_result, scalar_stats, scalar_machine = _run(
        random_benchmark, batched=False
    )
    batched_result, batched_stats, batched_machine = _run(
        random_benchmark, batched=True
    )
    assert batched_stats == scalar_stats
    assert batched_result.hmipc == scalar_result.hmipc
    assert batched_result.total_cycles == scalar_result.total_cycles
    for bcore, score in zip(batched_result.cores, scalar_result.cores):
        assert (bcore.ipc, bcore.instructions, bcore.cycles) == (
            score.ipc, score.instructions, score.cycles
        )
        assert bcore.l2_mpki == score.l2_mpki
        assert bcore.avg_load_latency == score.avg_load_latency
    # Both forms take the same dispatch decisions — including which
    # ROB-stalled ops park without an event, and on a mostly-hit mix
    # some must — so both machines fire exactly the same events.
    parked = [core.parked_dispatches for core in batched_machine.cores]
    assert parked == [core.parked_dispatches for core in scalar_machine.cores]
    assert sum(parked) > 0
    assert (
        batched_machine.engine.events_fired
        == scalar_machine.engine.events_fired
    )


def test_native_producer_matches_batch_iter_adapter():
    """A generator's native columnar stream must equal the adapter's.

    The synthetic generators produce TraceBatch columns directly; the
    guarantee is that this is purely a faster construction of the same
    items the row-form generator yields.
    """
    import itertools

    from repro.workloads import synthetic as syn

    rows = list(itertools.islice(
        syn.sequential_scan(0x4000, footprint=4096, stride=64, gap=1,
                            seed=3),
        1_500,
    ))
    native = []
    for batch in syn.sequential_scan_batches(
            0x4000, footprint=4096, stride=64, gap=1, seed=3):
        native.extend(batch)
        if len(native) >= 1_500:
            break
    assert native[:1_500] == rows


# ---------------------------------------------------------------------------
# Miss-heavy mixes: the trace-form differential on DRAM-bound inputs.
# ---------------------------------------------------------------------------
#
# The random mix above is mostly L1 hits, so it exercises the core's
# hit and ROB-stall paths.  The mixes below are DRAM-bound: deep MRQs,
# blocked cores, row conflicts, refresh blackouts, MSHR backpressure.

from repro.validate import missheavy


# The stock L2 is 12 MiB — a looping synthetic trace becomes resident
# after one pass and stops missing.  Shrink the L2 so the mixes stay
# DRAM-bound for their whole run.
_SMALL_L2 = dict(l2_size=64 * 1024, l2_assoc=8)


def _run_mc(name: str, batched: bool, **overrides):
    params = dict(_SMALL_L2)
    params.update(overrides)
    config = config_2d().derive(name="2D-mh", num_cores=1, **params)
    machine = Machine(
        config, [name], seed=7, workload_name=name, batched=batched
    )
    result = machine.run(
        warmup_instructions=_WARMUP, measure_instructions=_MEASURE
    )
    return result, machine.registry.dump(), machine


@pytest.fixture
def miss_heavy_benchmark(request):
    kind, seed, batch_size = request.param
    name = missheavy.register_miss_heavy(kind, seed, batch_size)
    yield kind, name
    missheavy.unregister(name)


@pytest.mark.parametrize(
    "miss_heavy_benchmark",
    [
        ("streaming", 5, 1),
        ("streaming", 5, 4096),
        ("pointer-chase", 9, 2),
        ("row-conflict-max", 13, 7),
        ("refresh-straddling", 17, 4096),
    ],
    indirect=True,
    ids=[
        "streaming-batch1",
        "streaming-batch-huge",
        "pointer-chase-batch2",
        "row-conflict-batch-odd",
        "refresh-straddle-batch-huge",
    ],
)
def test_miss_heavy_stats_bit_identical(miss_heavy_benchmark):
    kind, name = miss_heavy_benchmark
    scalar_result, scalar_stats, scalar_machine = _run_mc(name, batched=False)
    batched_result, batched_stats, batched_machine = _run_mc(name, batched=True)
    assert batched_stats == scalar_stats
    assert batched_result.hmipc == scalar_result.hmipc
    assert batched_result.total_cycles == scalar_result.total_cycles
    for bcore, score in zip(batched_result.cores, scalar_result.cores):
        assert bcore.avg_load_latency == score.avg_load_latency
        assert bcore.l2_mpki == score.l2_mpki
    assert (
        batched_machine.engine.events_fired
        == scalar_machine.engine.events_fired
    )
    if kind == "streaming":
        # The saturated-MRQ case must really be DRAM-bound, otherwise
        # this differential never leaves the L2.
        issued = sum(
            mc.stats.get("issued")
            for mc in batched_machine.memory.controllers
        )
        assert issued > _MEASURE / 8


def test_miss_heavy_single_entry_mshr_bit_identical():
    """One MSHR entry per bank: maximal backpressure and fill churn."""
    name = missheavy.register_miss_heavy("streaming", 21, 7)
    try:
        dumps = []
        for batched in (False, True):
            _, dump, _ = _run_mc(
                name, batched=batched, l1_mshr_entries=1, l2_mshr_per_bank=1
            )
            dumps.append(dump)
        assert dumps[0] == dumps[1]
    finally:
        missheavy.unregister(name)


def test_miss_heavy_multicore_mixed_kinds_bit_identical():
    """All four miss-heavy kinds at once on a 4-core machine."""
    names = missheavy.register_all(seed=31, batch_size=256)
    try:
        dumps = []
        for batched in (False, True):
            config = config_2d().derive(name="2D-mh4", **_SMALL_L2)
            machine = Machine(
                config, list(names.values()), seed=11,
                workload_name="missheavy-4c", batched=batched,
            )
            machine.run(
                warmup_instructions=_WARMUP, measure_instructions=_MEASURE
            )
            dumps.append(machine.registry.dump())
        assert dumps[0] == dumps[1]
    finally:
        missheavy.unregister(names)


def test_multicore_mix_stats_bit_identical():
    """The stock 4-core H1 mix: full-system scalar vs batched dump."""
    from repro.workloads.mixes import MIXES

    mix = MIXES["H1"]
    dumps = []
    for batched in (False, True):
        machine = Machine(
            config_2d(), list(mix.benchmarks), seed=42,
            workload_name=mix.name, batched=batched,
        )
        machine.run(
            warmup_instructions=_WARMUP, measure_instructions=_MEASURE
        )
        dumps.append(machine.registry.dump())
    assert dumps[0] == dumps[1]
