"""Conservation properties: nothing gets lost in the plumbing.

Event-driven simulators die by lost wakeups — a request parked on a full
MSHR/MRQ that never retries deadlocks silently or leaks.  These tests
push randomized traffic through each layer and assert that every request
completes exactly once and every structure drains back to empty.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.array import CacheArray
from repro.cache.l2 import BankedL2Cache
from repro.common.request import AccessType, MemoryRequest
from repro.dram.timing import ddr2_commodity
from repro.engine import Engine, Watchdog
from repro.interconnect.links import tsv_bus
from repro.memctrl.memsys import MainMemory
from repro.mshr.conventional import ConventionalMshr
from repro.mshr.vbf_mshr import VbfMshr


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), num_requests=st.integers(1, 120))
def test_memory_system_completes_every_request(seed, num_requests):
    rng = random.Random(seed)
    engine = Engine()
    memory = MainMemory(
        engine,
        ddr2_commodity(),
        bus_factory=lambda n: tsv_bus(64, name=n),
        num_mcs=2,
        total_ranks=8,
        aggregate_queue_capacity=8,  # tiny: forces heavy backpressure
    )
    completed = []
    pending = []
    for _ in range(num_requests):
        access = AccessType.WRITEBACK if rng.random() < 0.3 else AccessType.READ
        request = MemoryRequest(
            rng.randrange(1 << 24) & ~63,
            access,
            created_at=engine.now,
            callback=completed.append,
        )
        pending.append(request)

    # Feed requests through the backpressure interface.
    queue = list(pending)

    def feed():
        while queue:
            if not memory.enqueue(queue[0]):
                request = queue[0]
                memory.wait_for_space(request.addr, feed)
                return
            queue.pop(0)

    feed()
    engine.run(watchdog=Watchdog(max_events=2_000_000))
    assert len(completed) == num_requests
    assert {r.req_id for r in completed} == {r.req_id for r in pending}
    assert all(r.completed_at is not None for r in pending)
    assert all(len(mc.mrq) == 0 for mc in memory.controllers)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    mshr_entries=st.integers(1, 4),
    num_requests=st.integers(1, 100),
)
def test_l2_drains_under_tiny_mshr_and_mrq(seed, mshr_entries, num_requests):
    rng = random.Random(seed)
    engine = Engine()
    memory = MainMemory(
        engine,
        ddr2_commodity(),
        bus_factory=lambda n: tsv_bus(64, name=n),
        num_mcs=1,
        total_ranks=8,
        aggregate_queue_capacity=4,
    )
    l2 = BankedL2Cache(
        engine,
        CacheArray(64 * 1024, 8, 64),
        memory,
        [VbfMshr(mshr_entries) if seed % 2 else ConventionalMshr(mshr_entries)],
        num_banks=4,
    )
    completed = []
    for i in range(num_requests):
        # A small page pool so merges, hits and conflicts all occur.
        addr = (rng.randrange(64) * 4096 + rng.randrange(64) * 64)
        request = MemoryRequest(
            addr, AccessType.READ, core_id=i % 4,
            created_at=engine.now, callback=completed.append,
        )
        l2.access(request)
    engine.run(watchdog=Watchdog(max_events=2_000_000))
    assert len(completed) == num_requests
    assert l2.mshr_occupancy() == 0
    assert all(not w for w in l2._mshr_waiters)


def test_full_machine_conserves_and_drains():
    """A whole 4-core machine empties its structures when run long."""
    from repro.common.units import MIB
    from repro.system.config import config_quad_mc
    from repro.system.machine import Machine

    config = config_quad_mc().derive(
        l2_size=1 * MIB, l2_assoc=16, dram_capacity=64 * MIB
    )
    machine = Machine(config, ["qsort", "S.all", "mcf", "gzip"])
    machine.run(warmup_instructions=1_000, measure_instructions=4_000)
    # Cores never stop, but at any quiescent instant accounting holds:
    dispatched = sum(c.stats.get("dispatched_refs") for c in machine.cores)
    committed = sum(c.committed for c in machine.cores)
    assert dispatched > 0 and committed > 0
    # MSHR occupancy is bounded by capacity limits at all times.
    for file in machine.l2_mshr_files:
        assert 0 <= file.occupancy <= file.capacity


def test_requests_are_built_only_below_the_l1():
    """A core reference builds no request: the request-id counter moves
    once per line an L1 sends to the L2 (fetch, writeback, prefetch) and
    once per line the L2 sends to memory (MSHR allocation, writeback,
    prefetch) — never for an L1 hit, a secondary miss or a rejected
    access, which the core's in-flight record serves."""
    from repro.common import request as request_mod
    from repro.common.units import MIB
    from repro.system.config import config_quad_mc
    from repro.system.machine import Machine

    config = config_quad_mc().derive(
        l2_size=1 * MIB, l2_assoc=16, dram_capacity=64 * MIB
    )
    machine = Machine(config, ["qsort", "S.all", "mcf", "gzip"], seed=7)
    start = request_mod.capture_globals()["next_request_id"]
    machine.run(warmup_instructions=1_000, measure_instructions=4_000)
    created = request_mod.capture_globals()["next_request_id"] - start

    l1 = [cache.stats.get for cache in machine.l1s]
    l2 = machine.l2.stats.get
    waiting = sum(len(queue) for queue in machine.l2._mshr_waiters)
    below_l1 = sum(
        get("misses") + get("writebacks") + get("prefetches_issued") for get in l1
    )
    below_l2 = (
        l2("misses") - l2("mshr_merges") - waiting  # MSHR allocations
        + l2("memory_writebacks") + l2("prefetches_issued")
    )
    assert created == below_l1 + below_l2
    # Every kind of reference that stays in the L1 occurred.
    for key in ("hits", "secondary_misses", "mshr_rejects"):
        assert sum(get(key) for get in l1) > 0, key


@pytest.mark.parametrize("organization", ["conventional", "vbf", "direct-mapped"])
def test_mshr_stall_wakeups_are_never_lost(organization):
    """A single-entry MSHR with many waiters must drain them all."""
    from repro.mshr.factory import make_mshr

    engine = Engine()
    memory = MainMemory(
        engine,
        ddr2_commodity(),
        bus_factory=lambda n: tsv_bus(64, name=n),
        num_mcs=1,
        total_ranks=8,
    )
    l2 = BankedL2Cache(
        engine,
        CacheArray(64 * 1024, 8, 64),
        memory,
        [make_mshr(organization, 1)],
        num_banks=2,
    )
    completed = []
    for page in range(20):
        l2.access(
            MemoryRequest(
                page * 4096, AccessType.READ,
                created_at=0, callback=completed.append,
            )
        )
    engine.run(watchdog=Watchdog(max_events=2_000_000))
    assert len(completed) == 20
