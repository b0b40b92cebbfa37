"""Batch-boundary equivalence: where a trace is cut into batches must
not change what the machine does.

A core executes one trace form — ``TraceBatch`` columns read through a
cursor — and the columns come from two kinds of producer: a Table-2
benchmark's columnar producer, and the ``batch_iter`` adapter chunking
a row-form generator (what an ad-hoc generator or ``read_trace`` goes
through).  For every input below the machine is run once on the
registered producer and once with each benchmark's items re-chunked by
``batch_iter`` at a ragged batch size, and the ``MachineResult``, the
complete stat dump and the number of events fired must be equal.
Batch sizes (1, 2, odd, huge, the producers' 1024 against 37) put the
batch boundaries in different places on the two arms, so an op that
stalls, parks or is skipped across a boundary is covered too.  That
the items themselves are the reference generators' is pinned by
``tests/workloads/test_synthetic.py`` and ``test_benchmarks.py``.
"""

import dataclasses
import itertools
import random

import pytest

from repro.cpu.trace import TraceItem, batch_iter
from repro.system.config import config_2d
from repro.system.machine import Machine
from repro.workloads.benchmarks import BENCHMARKS, BenchmarkSpec
from repro.workloads.mixes import MIXES
from tests import missheavy

_WARMUP = 1_000
_MEASURE = 4_000
_RAGGED = 37


def _run(config, names, seed):
    machine = Machine(config, names, seed=seed, workload_name="producers")
    result = machine.run(
        warmup_instructions=_WARMUP, measure_instructions=_MEASURE
    )
    return result, machine.registry.dump(), machine


def _run_both(config, names, seed=7):
    """(registered producers, the same items re-chunked at _RAGGED)."""
    registered = _run(config, names, seed)
    specs = {name: BENCHMARKS[name] for name in names}
    try:
        for name, spec in specs.items():
            BENCHMARKS[name] = dataclasses.replace(
                spec,
                factory=lambda base, seed, _f=spec.factory: batch_iter(
                    itertools.chain.from_iterable(_f(base, seed)), _RAGGED
                ),
            )
        return registered, _run(config, names, seed)
    finally:
        BENCHMARKS.update(specs)


def _assert_identical(registered, rechunked):
    (got_result, got_dump, got), (want_result, want_dump, want) = (
        registered, rechunked
    )
    assert got_result == want_result
    assert got_dump == want_dump
    # Same dispatch decisions, including which ROB-stalled ops park
    # without an event, so both machines fire exactly the same events.
    assert [core.parked_dispatches for core in got.cores] == [
        core.parked_dispatches for core in want.cores
    ]
    assert got.engine.events_fired == want.engine.events_fired


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


@pytest.fixture
def random_benchmark(request):
    seed, batch_size = request.param
    name = f"_randmix_s{seed}_b{batch_size}"
    items = _random_items(seed)

    def rows(base):
        while True:
            for gap, addr, w, pc in items:
                yield TraceItem(gap, base + addr, bool(w), pc)

    BENCHMARKS[name] = BenchmarkSpec(
        name, "Micro", 0.0,
        lambda base, _seed: batch_iter(rows(base), size=batch_size),
        base_cpi=0.5,
    )
    yield name
    BENCHMARKS.pop(name, None)


@pytest.mark.parametrize(
    "random_benchmark",
    [(11, 1), (11, 2), (23, 7), (23, 4096)],
    indirect=True,
    ids=["batch1", "batch2", "batch-odd", "batch-huge"],
)
def test_random_mix_stats_bit_identical(random_benchmark):
    config = config_2d().derive(name="2D-1c", num_cores=1)
    registered, rechunked = _run_both(config, [random_benchmark])
    _assert_identical(registered, rechunked)
    # A mostly-hit mix must exercise the parking rule.
    assert sum(core.parked_dispatches for core in registered[2].cores) > 0


def test_native_producer_matches_batch_iter_adapter():
    """A producer's columns must equal the adapter's, column for column.

    The synthetic producers build TraceBatch columns directly; the
    guarantee is that this is purely a faster construction of the
    batches ``batch_iter`` would cut from the row-form reference
    generator, down to the columns' array types.
    """
    from repro.workloads import synthetic as syn
    from tests.workloads import row_reference

    kwargs = dict(footprint=4096, stride=64, gap=1, seed=3)
    native = syn.sequential_scan(0x4000, **kwargs)
    adapted = batch_iter(row_reference.sequential_scan(0x4000, **kwargs))
    for got, want in itertools.islice(zip(native, adapted), 3):
        for column in ("gaps", "addrs", "writes", "pcs"):
            assert getattr(got, column) == getattr(want, column)


# ---------------------------------------------------------------------------
# Miss-heavy mixes: the same differential on DRAM-bound inputs.
# ---------------------------------------------------------------------------
#
# The random mix above is mostly L1 hits, so it exercises the core's
# hit and ROB-stall paths.  The mixes below are DRAM-bound: deep MRQs,
# blocked cores, row conflicts, refresh blackouts, MSHR backpressure.

# The stock L2 is 12 MiB — a looping synthetic trace becomes resident
# after one pass and stops missing.  Shrink the L2 so the mixes stay
# DRAM-bound for their whole run.
_SMALL_L2 = dict(l2_size=64 * 1024, l2_assoc=8)


def _miss_heavy_config(**overrides):
    return config_2d().derive(
        name="2D-mh", num_cores=1, **dict(_SMALL_L2, **overrides)
    )


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
    registered, rechunked = _run_both(_miss_heavy_config(), [name])
    _assert_identical(registered, rechunked)
    if kind == "streaming":
        # The saturated-MRQ case must really be DRAM-bound, otherwise
        # this differential never leaves the L2.
        issued = sum(
            mc.stats.get("issued")
            for mc in registered[2].memory.controllers
        )
        assert issued > _MEASURE / 8


def test_miss_heavy_single_entry_mshr_bit_identical():
    """One MSHR entry per bank: maximal backpressure and fill churn."""
    name = missheavy.register_miss_heavy("streaming", 21, 7)
    try:
        config = _miss_heavy_config(l1_mshr_entries=1, l2_mshr_per_bank=1)
        _assert_identical(*_run_both(config, [name]))
    finally:
        missheavy.unregister(name)


def test_miss_heavy_multicore_mixed_kinds_bit_identical():
    """All four miss-heavy kinds at once on a 4-core machine."""
    names = missheavy.register_all(seed=31, batch_size=256)
    try:
        config = config_2d().derive(name="2D-mh4", **_SMALL_L2)
        _assert_identical(*_run_both(
            config, list(names.values()), seed=11
        ))
    finally:
        missheavy.unregister(names)


def test_multicore_mix_stats_bit_identical():
    """The stock 4-core H1 mix: its Table-2 producers against the same
    items re-chunked, end to end."""
    _assert_identical(*_run_both(
        config_2d(), list(MIXES["H1"].benchmarks), seed=42
    ))
