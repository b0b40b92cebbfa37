"""Stack-mode equivalence battery.

The two stack modes meet at one degenerate corner, and it must be
*exact*:

* ``memory`` mode is bit-identical to the pre-PR simulator (pinned by a
  golden transcript fingerprint);
* ``cache`` mode under the identity configuration (zero tag latency,
  direct-mapped warm-started frames covering the footprint, no SRAM
  tag cost) produces the same commit-order transcript as memory mode —
  same stack commands, same per-core cycles.

Machine-level equivalences run under every runtime checker; the facade
-level properties drive seeded ``tests.strategies.address_stream``
request streams straight into :class:`repro.stack3d.modes.
StackModeMemory` over a matrix of organizations.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.common.request import AccessType, MemoryRequest
from repro.common.stats import StatRegistry
from repro.common.units import MIB
from repro.dram.timing import ddr2_commodity, true_3d
from repro.engine.simulator import Engine
from repro.interconnect.links import offchip_fsb, tsv_bus
from repro.memctrl.memsys import MainMemory
from repro.stack3d.modes import StackModeMemory
from repro.system.config import config_3d_fast
from repro.validate.diff import (
    MODE_ONLY_STAT_PREFIXES,
    diff_runs,
    filter_run,
    run_traced,
)

from tests.strategies import address_stream

WARMUP, MEASURE, SEED = 2_000, 5_000, 42

#: Golden fingerprint of the memory-mode DRAM command transcript on the
#: 3D-fast baseline (4x mcf, smoke budgets, seed 42).  Computed on the
#: pre-stack-modes tree: any change here means memory mode is no longer
#: bit-identical to the simulator this PR started from.
GOLDEN_TRANSCRIPT = (1996, "07fe9966485f80de")


def _mcf(config):
    return ["mcf"] * config.num_cores


def _fingerprint(transcript):
    digest = hashlib.sha256()
    for record in transcript:
        digest.update(repr(record).encode())
    return len(transcript), digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# (a) memory mode is the pre-PR simulator
# ----------------------------------------------------------------------
def test_memory_mode_matches_pre_pr_golden():
    config = config_3d_fast()
    run = run_traced(
        config, _mcf(config), warmup=WARMUP, measure=MEASURE, seed=SEED
    )
    assert _fingerprint(run.transcript) == GOLDEN_TRANSCRIPT


# ----------------------------------------------------------------------
# (b) identity-configured cache mode converges to memory mode
# ----------------------------------------------------------------------
def _identity_cache_config(base):
    return base.derive(
        name=f"{base.name}-l4id",
        stack_mode="cache",
        l4_capacity=8 * MIB,
        l4_assoc=1,
        l4_tag_latency=0,
        l4_sram_tag_cost=False,
        l4_warm_start=True,
    )


def test_cache_identity_matches_memory_commit_order():
    base = config_3d_fast()
    lhs = run_traced(
        base, _mcf(base), warmup=WARMUP, measure=MEASURE, seed=SEED,
        checkers="all", label="memory",
    )
    rhs = run_traced(
        _identity_cache_config(base), _mcf(base),
        warmup=WARMUP, measure=MEASURE, seed=SEED,
        checkers="all", label="cache-identity",
    )
    # Capacity >= footprint + warm start: the cache never misses, so it
    # never touches the off-chip channel at all.
    assert not [r for r in rhs.transcript if r.mc >= base.num_mcs]
    view = filter_run(
        rhs, max_mc=base.num_mcs, drop_stat_prefixes=MODE_ONLY_STAT_PREFIXES
    )
    report = diff_runs(lhs, view)
    assert report.identical, report.format()
    # Commit-order equivalence: every core retires the same instruction
    # count in the same number of cycles.
    assert rhs.result.total_cycles == lhs.result.total_cycles
    for mem_core, cache_core in zip(lhs.result.cores, rhs.result.cores):
        assert (mem_core.instructions, mem_core.cycles, mem_core.ipc) == (
            cache_core.instructions, cache_core.cycles, cache_core.ipc
        )


# ----------------------------------------------------------------------
# Facade-level property battery on seeded address streams
# ----------------------------------------------------------------------
def _build_facade(**overrides):
    engine = Engine()
    registry = StatRegistry()

    def stack_bus(name):
        return tsv_bus(width_bytes=64, stats=registry.group(name), name=name)

    def offchip_bus(name):
        return offchip_fsb(stats=registry.group(name), name=name)

    stack = MainMemory(
        engine, true_3d(), bus_factory=stack_bus, registry=registry,
        num_mcs=1, total_ranks=2, banks_per_rank=2,
        aggregate_queue_capacity=8,
    )
    offchip = MainMemory(
        engine, ddr2_commodity(), bus_factory=offchip_bus, registry=registry,
        num_mcs=1, total_ranks=2, banks_per_rank=2,
        aggregate_queue_capacity=8, first_mc_id=1, stat_prefix="offchip.",
    )
    kwargs = dict(
        capacity=64 * 1024, assoc=4, tag_latency=2, mshr_entries=4,
        line_size=64,
    )
    kwargs.update(overrides)
    facade = StackModeMemory(engine, stack, offchip, registry, **kwargs)
    return engine, facade


def _drive(engine, facade, stream, write_every=3, gap=4):
    """Issue the stream one request per ``gap`` cycles; L2-style retry."""
    completed = []
    state = {"next": 0}

    def on_complete(request):
        completed.append(request.addr)

    def issue():
        index = state["next"]
        if index >= len(stream):
            return
        addr = stream[index]
        access = (
            AccessType.WRITE if index % write_every == 0 else AccessType.READ
        )
        request = MemoryRequest(
            addr, access, pc=(addr >> 6) * 4, created_at=engine.now,
            callback=on_complete,
        )
        if facade.enqueue(request):
            state["next"] += 1
            engine.schedule(gap, issue)
        else:
            facade.wait_for_space(addr, lambda: retry(request))

    def retry(request):
        if facade.enqueue(request):
            state["next"] += 1
            engine.schedule(gap, issue)
        else:
            facade.wait_for_space(request.addr, lambda: retry(request))

    issue()
    engine.run(until=50_000_000)
    return completed


ORGANIZATIONS = [
    dict(),                           # set-associative
    dict(assoc=1, tag_latency=0),     # synchronous direct-mapped path
    dict(mshr_entries=1),             # max MSHR pressure
]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("overrides", ORGANIZATIONS,
                         ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()) or "default")
def test_every_request_completes_exactly_once(seed, overrides):
    """Conservation under every organization: no request is lost or
    duplicated, and nothing is left in flight after the drain."""
    engine, facade = _build_facade(**overrides)
    stream = address_stream(seed, length=300, pattern="mixed",
                            footprint_lines=2048)
    completed = _drive(engine, facade, stream)
    # Same multiset: every request completed exactly once (completion
    # *order* legitimately differs — hits overtake older misses).
    assert sorted(completed) == sorted(stream)
    assert facade.occupancy() == 0
    stats = dict(facade.stats.items())
    demand = stats["hits"] + stats["misses"] + stats["merges"]
    assert demand >= len(stream) * 0.99
    assert stats["fills"] == stats["offchip_reads"]
