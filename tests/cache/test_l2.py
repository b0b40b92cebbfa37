"""Unit tests for the banked L2 cache (against a fake memory system)."""

import pytest

from repro.cache.array import CacheArray
from repro.cache.l2 import BankedL2Cache
from repro.cache.prefetch import Prefetcher
from repro.common.request import AccessType, MemoryRequest
from repro.mshr.conventional import ConventionalMshr
from repro.mshr.vbf_mshr import VbfMshr

from .conftest import FakeMemory, make_read


def _l2(
    engine,
    memory=None,
    mshr_files=None,
    num_banks=4,
    interleave="page",
    prefetcher=None,
):
    memory = memory if memory is not None else FakeMemory(engine)
    mshr_files = mshr_files if mshr_files is not None else [ConventionalMshr(8)]
    l2 = BankedL2Cache(
        engine,
        CacheArray(64 * 1024, 8, 64),
        memory,
        mshr_files,
        num_banks=num_banks,
        interleave=interleave,
        latency=9,
        routing_latency=2,
        prefetcher=prefetcher,
    )
    return l2, memory


def test_hit_latency(engine):
    l2, memory = _l2(engine)
    l2.array.fill(0x100)
    done = []
    l2.access(make_read(0x100, callback=done.append))
    engine.run()
    # routing (2) + tag (9) + routing back (2)
    assert done[0].completed_at == 13
    assert not memory.queued


def test_miss_goes_to_memory_and_fills(engine):
    l2, memory = _l2(engine)
    done = []
    l2.access(make_read(0x5000, callback=done.append))
    engine.run()
    assert len(memory.queued) == 1
    assert memory.queued[0].addr == 0x5000
    memory.complete_next()
    engine.run()
    assert done
    assert l2.array.probe(0x5000)
    # MSHR entry released.
    assert l2.mshr_occupancy() == 0


def test_secondary_miss_merges_into_mshr(engine):
    l2, memory = _l2(engine)
    done = []
    l2.access(make_read(0x5000, callback=done.append))
    l2.access(make_read(0x5040 - 0x40, callback=done.append))  # same line
    engine.run()
    assert len(memory.queued) == 1
    assert l2.stats.get("mshr_merges") == 1
    memory.complete_next()
    engine.run()
    assert len(done) == 2


def test_mshr_full_stalls_until_fill(engine):
    l2, memory = _l2(engine, mshr_files=[ConventionalMshr(1)])
    done = []
    l2.access(make_read(0x1000, callback=done.append))
    l2.access(make_read(0x2000, callback=done.append))
    engine.run()
    assert len(memory.queued) == 1  # second miss stalled
    assert l2.stats.get("mshr_stalls") == 1
    memory.complete_next()
    engine.run()
    assert len(memory.queued) == 1  # stalled miss released
    memory.complete_next()
    engine.run()
    assert len(done) == 2
    assert l2.stats.get("mshr_stall_cycles") > 0


def test_writeback_hit_marks_dirty_and_completes(engine):
    l2, memory = _l2(engine)
    l2.array.fill(0x3000)
    wb = MemoryRequest(0x3000, AccessType.WRITEBACK)
    l2.access(wb)
    engine.run()
    assert wb.completed_at is not None
    assert not memory.queued
    assert l2.array.invalidate(0x3000) is True


def test_writeback_miss_forwards_to_memory(engine):
    l2, memory = _l2(engine)
    wb = MemoryRequest(0x3000, AccessType.WRITEBACK)
    l2.access(wb)
    engine.run()
    assert wb.completed_at is not None  # posted
    assert len(memory.queued) == 1
    assert memory.queued[0].access is AccessType.WRITEBACK


def test_dirty_eviction_writes_back_to_memory(engine):
    l2, memory = _l2(engine)
    # 64 KiB 8-way -> 128 sets; lines k * (128*64) share set 0.
    stride = 128 * 64
    for i in range(8):
        l2.array.fill(i * stride, dirty=True)
    l2.access(make_read(8 * stride))
    engine.run()
    memory.complete_next()  # the fill
    engine.run()
    wbs = [r for r in memory.queued if r.access is AccessType.WRITEBACK]
    assert len(wbs) == 1
    assert wbs[0].addr == 0
    assert l2.stats.get("memory_writebacks") == 1


def test_bank_serialization_by_occupancy(engine):
    l2, memory = _l2(engine, num_banks=1)
    done = []
    l2.array.fill(0x000)
    l2.array.fill(0x040)
    l2.access(make_read(0x000, callback=done.append))
    l2.access(make_read(0x040, callback=done.append))
    engine.run()
    assert done[1].completed_at - done[0].completed_at == l2.bank_occupancy


def test_page_vs_line_interleave_routing():
    from repro.engine import Engine

    engine = Engine()
    page_l2, _ = _l2(engine, num_banks=4, interleave="page")
    line_l2, _ = _l2(engine, num_banks=4, interleave="line")
    # Same page, consecutive lines: one bank under page interleave,
    # different banks under line interleave.
    assert page_l2.bank_index(0x0) == page_l2.bank_index(0x40)
    assert line_l2.bank_index(0x0) != line_l2.bank_index(0x40)
    # Consecutive pages: different banks under page interleave.
    assert page_l2.bank_index(0x0) != page_l2.bank_index(0x1000)


def test_mshr_banks_align_with_mcs(engine):
    memory = FakeMemory(engine, num_mcs=2)
    files = [ConventionalMshr(4), ConventionalMshr(4)]
    l2, _ = _l2(engine, memory=memory, mshr_files=files)
    l2.access(make_read(0x0000))
    l2.access(make_read(0x1000))
    engine.run()
    assert files[0].occupancy == 1
    assert files[1].occupancy == 1


def test_mshr_files_are_one_or_one_per_mc(engine):
    """MSHR routing has two rules: one file for every line, or one file
    per memory controller.  Any other file count is refused."""
    memory = FakeMemory(engine, num_mcs=2)
    for count in (0, 3, 4):
        with pytest.raises(ValueError, match="MSHR files"):
            _l2(engine, memory=memory,
                mshr_files=[ConventionalMshr(4) for _ in range(count)])
    single, _ = _l2(engine, memory=memory)
    for page in range(4):
        single.access(make_read(page * 4096))
    engine.run()
    assert single.mshr_files[0].occupancy == 4


def test_per_core_demand_stats(engine):
    l2, memory = _l2(engine)
    l2.access(make_read(0x1000, core_id=2))
    engine.run()
    assert l2.stats.get("core2_demand_accesses") == 1
    assert l2.stats.get("core2_demand_misses") == 1
    prefetch = MemoryRequest(0x9000, AccessType.PREFETCH, core_id=2)
    l2.access(prefetch)
    engine.run()
    # Prefetches never count as demand.
    assert l2.stats.get("core2_demand_accesses") == 1


def test_prefetcher_issues_and_tracks_usefulness(engine):
    prefetcher = Prefetcher(64)
    l2, memory = _l2(engine, prefetcher=prefetcher)
    l2.access(make_read(0x5000))
    engine.run()
    # Demand miss + its next-line prefetch both reached memory.
    assert len(memory.queued) == 2
    while memory.queued:
        memory.complete_next()
        engine.run()
    assert l2.stats.get("prefetches_issued") == 1
    assert l2.stats.get("prefetch_fills") == 1
    # A demand hit on the prefetched line counts it useful.
    l2.access(make_read(0x5040))
    engine.run()
    assert l2.stats.get("prefetch_useful") == 1


def test_demand_merging_into_prefetch_entry(engine):
    prefetcher = Prefetcher(64)
    l2, memory = _l2(engine, prefetcher=prefetcher)
    l2.access(make_read(0x5000))
    engine.run()
    done = []
    l2.access(make_read(0x5040, callback=done.append))  # prefetch in flight
    engine.run()
    assert l2.stats.get("prefetch_partial_hits") == 1
    while memory.queued:
        memory.complete_next()
        engine.run()
    assert done


def test_mrq_full_retries(engine):
    memory = FakeMemory(engine, capacity=1)
    l2, _ = _l2(engine, memory=memory)
    l2.access(make_read(0x1000))
    l2.access(make_read(0x2000))
    engine.run()
    assert l2.stats.get("mrq_full_retries") >= 1
    memory.complete_next()
    engine.run()
    assert len(memory.queued) == 1  # retried request got in
    memory.complete_next()
    engine.run()
    assert l2.mshr_occupancy() == 0


def test_vbf_probe_latency_delays_memory_issue():
    """Each MSHR probe of a miss costs one cycle before the memory send:
    a search that walks past same-home entries issues later by exactly
    its extra probes."""
    from repro.engine import Engine

    def issue(preload):
        engine = Engine()
        memory = FakeMemory(engine)
        file = VbfMshr(8)
        for line in preload:
            file.allocate(line)
        l2, _ = _l2(engine, memory=memory, mshr_files=[file])
        sent_at = []
        enqueue = memory.enqueue
        memory.enqueue = lambda req: sent_at.append(engine.now) or enqueue(req)
        probes = file.total_probes
        l2.access(make_read(0x1000))
        engine.run()
        return sent_at[0], file.total_probes - probes

    clean_at, clean_probes = issue([])
    # 0x3000 and 0x5000 share 0x1000's home slot in an 8-entry file.
    busy_at, busy_probes = issue([0x3000, 0x5000])
    assert busy_probes > clean_probes
    assert busy_at - clean_at == busy_probes - clean_probes


def test_validation():
    from repro.engine import Engine

    engine = Engine()
    memory = FakeMemory(engine)
    with pytest.raises(ValueError):
        BankedL2Cache(
            engine, CacheArray(64 * 1024, 8, 64), memory,
            [ConventionalMshr(8)], interleave="diagonal",
        )


def test_inclusion_back_invalidates_l1_copies(engine):
    """L2 eviction recalls L1 copies; dirty L1 data reaches memory."""
    from repro.cache.l1 import L1Cache

    l2, memory = _l2(engine)
    l1 = L1Cache(
        engine, 0, CacheArray(4 * 1024, 4, 64), 8, l2
    )
    l2.register_upper_level(l1)
    stride = 128 * 64  # L2 set-conflict stride (64 KiB, 8-way)
    # The L1 holds a dirty copy of line 0; the L2 copy is clean.
    l1.array.fill(0, dirty=True)
    for i in range(8):
        l2.array.fill(i * stride, dirty=False)
    # A new fill in the same L2 set evicts line 0 from the L2.
    l2.access(make_read(8 * stride))
    engine.run()
    memory.complete_next()
    engine.run()
    assert not l1.array.probe(0)  # recalled
    assert l1.stats.get("back_invalidations") == 1
    assert l2.stats.get("inclusion_dirty_recalls") == 1
    wbs = [r for r in memory.queued if r.access is AccessType.WRITEBACK]
    assert [w.addr for w in wbs] == [0]  # the dirty L1 data went down


def test_inclusion_clean_l1_copy_needs_no_writeback(engine):
    from repro.cache.l1 import L1Cache

    l2, memory = _l2(engine)
    l1 = L1Cache(
        engine, 0, CacheArray(4 * 1024, 4, 64), 8, l2
    )
    l2.register_upper_level(l1)
    stride = 128 * 64
    l1.array.fill(0, dirty=False)
    for i in range(8):
        l2.array.fill(i * stride, dirty=False)
    l2.access(make_read(8 * stride))
    engine.run()
    memory.complete_next()
    engine.run()
    assert not l1.array.probe(0)
    wbs = [r for r in memory.queued if r.access is AccessType.WRITEBACK]
    assert wbs == []
