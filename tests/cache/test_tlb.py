"""Unit tests for the DTLB."""

import itertools
import random

import pytest

from repro.cache.tlb import Tlb
from repro.common.address import PageAllocator
from repro.cpu.core import Core
from repro.cpu.trace import TraceItem
from repro.engine import Engine


def test_first_touch_misses_then_hits():
    tlb = Tlb(entries=8, assoc=2, walk_penalty=30)
    assert tlb.access(0x1000) == 30
    assert tlb.access(0x1FFF) == 0  # same page
    assert tlb.access(0x2000) == 30  # next page


def test_capacity_and_lru_within_set():
    tlb = Tlb(entries=2, assoc=2, walk_penalty=10)
    tlb.access(0 * 4096)
    tlb.access(1 * 4096)  # both land in set 0 (1 set)
    tlb.access(0 * 4096)  # promote page 0
    tlb.access(2 * 4096)  # evicts page 1
    assert tlb.contains(0 * 4096)
    assert not tlb.contains(1 * 4096)
    assert tlb.contains(2 * 4096)


def test_sets_are_indexed_by_vpn():
    tlb = Tlb(entries=8, assoc=2)  # 4 sets
    tlb.access(0 * 4096)  # set 0
    tlb.access(1 * 4096)  # set 1
    assert tlb.contains(0)
    assert tlb.contains(4096)


def test_flush():
    tlb = Tlb()
    tlb.access(0x5000)
    assert tlb.contains(0x5000)
    tlb.flush()
    assert not tlb.contains(0x5000)
    assert tlb.stats.get("flushes") == 1


def test_miss_rate():
    tlb = Tlb()
    tlb.access(0x1000)
    tlb.access(0x1008)
    assert tlb.miss_rate() == 0.5


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(entries=0),
        dict(entries=7, assoc=4),
        dict(page_size=1000),
        dict(walk_penalty=-1),
    ],
)
def test_validation(kwargs):
    with pytest.raises(ValueError):
        Tlb(**kwargs)


class InstantL1:
    """An L1 that hits every access in two cycles."""

    def __init__(self, engine):
        self.engine = engine

    def access(self, addr, pc, is_write, record):
        self.engine.schedule(2, self.on_data, record, self.engine.now + 2)
        return True

    def on_mshr_free(self, callback):
        raise AssertionError("never rejects")


def _run_core(tlb, trace, instructions=4_000):
    """Run one core over ``trace`` behind ``tlb`` until it has committed
    ``instructions``; returns the core and its IPC over that window."""
    engine = Engine()
    core = Core(engine, 0, trace, InstantL1(engine), PageAllocator(), tlb=tlb)
    core.start()
    core.watch_commit(instructions, lambda c: engine.request_stop())
    engine.run(until=10_000_000)
    return core, core.committed / engine.now


def test_core_pays_walk_penalty_once_per_page():
    """A page-local burst pays one walk; page changes pay again."""

    def run(walk_penalty):
        trace = (
            TraceItem(3, (i % 512) * 4096 + (i // 512) * 8, False, 0)
            for i in itertools.count()
        )  # one access per page: maximal TLB pressure over 512 pages
        core, ipc = _run_core(Tlb(walk_penalty=walk_penalty), trace)
        return ipc, core.stats.value("tlb_walk_cycles")

    slow_ipc, slow_walks = run(walk_penalty=50)
    fast_ipc, fast_walks = run(walk_penalty=1)
    assert slow_walks > fast_walks
    assert slow_ipc < fast_ipc


def test_dispatch_updates_the_tlb_as_access_would():
    """The TLB lookup inlined in ``Core._dispatch`` leaves every set's
    LRU order, the hit/miss counters and the walk cycles exactly as
    ``Tlb.access`` leaves them for the same lookups, whether the set
    count is a power of two or not."""
    for entries in (16, 24):  # 4 sets, 6 sets
        looked_up = []

        class LoggedSet(dict):
            def __contains__(self, vpn):
                looked_up.append(vpn)
                return super().__contains__(vpn)

        rng = random.Random(3)
        trace = (
            TraceItem(rng.randrange(4), rng.randrange(36) * 4096 + 8, False, 0)
            for _ in itertools.count()
        )  # 36 pages over the entries: hits, misses and evictions
        tlb = Tlb(entries=entries, assoc=4, walk_penalty=7)
        tlb._sets = [LoggedSet() for _ in tlb._sets]
        core, _ = _run_core(tlb, trace)
        reference = Tlb(entries=entries, assoc=4, walk_penalty=7)
        walk_cycles = sum(reference.access(vpn * 4096) for vpn in looked_up)
        stats = tlb.stats.as_dict()
        assert stats["hits"] > 0 and stats["misses"] > 0
        assert stats == reference.stats.as_dict()
        assert [list(d.items()) for d in tlb._sets] == [
            list(d.items()) for d in reference._sets
        ]
        assert core.stats.value("tlb_walk_cycles") == walk_cycles
