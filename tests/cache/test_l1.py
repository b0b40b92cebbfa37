"""Unit tests for the L1 data cache (against a fake L2)."""

import random

import pytest

from repro.cache.array import CacheArray
from repro.cache.l1 import HIT, MISS, L1Cache
from repro.cache.prefetch import Prefetcher
from repro.common.request import AccessType

from .conftest import FakeL2


def _l1(engine, l2=None, mshr_entries=8, prefetcher=None, latency=3):
    """An L1, its L2 and the list its completions land in, as
    ``(record, at)``."""
    l2 = l2 if l2 is not None else FakeL2(engine)
    l1 = L1Cache(
        engine,
        core_id=0,
        array=CacheArray(4 * 1024, 4, 64),
        mshr_entries=mshr_entries,
        l2=l2,
        latency=latency,
        prefetcher=prefetcher,
    )
    done = []
    l1.on_data = lambda record, completed_at: done.append((record, completed_at))
    return l1, l2, done


def _read(l1, addr, record="load"):
    return l1.access(addr, 0, False, record)


def _write(l1, addr, record="store"):
    return l1.access(addr, 0, True, record)


def test_hit_completes_after_latency(engine):
    """A hit completes by return value: ``HIT``, with nothing called
    back and nothing scheduled; the caller counts ``latency`` cycles
    (``Core._dispatch`` does).  A miss is ``MISS`` and calls back."""
    l1, l2, done = _l1(engine)
    l1.array.fill(0x100)
    assert _read(l1, 0x100) == HIT
    assert l1.latency == 3
    assert engine.pending == 0
    engine.run()
    assert done == []
    assert not l2.requests
    assert _read(l1, 0x1000) == MISS


def test_miss_fetches_line_from_l2(engine):
    l1, l2, done = _l1(engine)
    assert _read(l1, 0x123)
    engine.run()
    assert len(l2.requests) == 1
    fetch = l2.requests[0]
    assert fetch.addr == 0x100  # line-aligned
    assert fetch.access is AccessType.READ
    assert not done
    l2.complete_next()
    assert done == [("load", engine.now)]
    # The line is now resident.
    assert l1.array.probe(0x100)


def test_secondary_miss_merges(engine):
    l1, l2, done = _l1(engine)
    _read(l1, 0x100, "first")
    _read(l1, 0x108, "second")
    engine.run()
    assert len(l2.requests) == 1  # merged, single fetch
    l2.complete_next()
    assert [record for record, _ in done] == ["first", "second"]


def test_mshr_full_rejects_and_wakes(engine):
    l1, l2, _ = _l1(engine, mshr_entries=1)
    assert _read(l1, 0x1000)
    assert not _read(l1, 0x2000)
    woken = []
    l1.on_mshr_free(lambda: woken.append(engine.now))
    engine.run()
    l2.complete_next()
    assert woken


def test_write_miss_is_rfo_and_dirties_line(engine):
    l1, l2, _ = _l1(engine)
    assert _write(l1, 0x200)
    engine.run()
    assert l2.requests[0].access is AccessType.READ  # fetch-for-ownership
    l2.complete_next()
    # Evicting the line must produce a writeback.
    victim = l1.array.invalidate(0x200)
    assert victim is True  # dirty


def test_store_merged_into_a_load_miss_dirties_the_fill(engine):
    l1, l2, done = _l1(engine)
    _read(l1, 0x300)
    _write(l1, 0x308)  # secondary miss on the same line
    engine.run()
    l2.complete_next()
    assert [record for record, _ in done] == ["load", "store"]
    assert l1.array.invalidate(0x300) is True


def test_write_hit_marks_dirty(engine):
    l1, _, _ = _l1(engine)
    l1.array.fill(0x100)
    assert _write(l1, 0x108)
    assert l1.array.invalidate(0x100) is True


def test_dirty_eviction_sends_writeback_to_l2(engine):
    l1, l2, _ = _l1(engine)
    array = l1.array  # 4 KiB, 4-way, 16 sets: set 0 holds lines k*1024
    # Fill set 0 with dirty lines, then force an eviction via a fetch.
    for i in range(4):
        _write(l1, i * 1024)
        engine.run()
        l2.complete_next()
    _read(l1, 4 * 1024)
    engine.run()
    l2.complete_next()  # completes the fetch; eviction happens at fill
    writebacks = [r for r in l2.requests if r.access is AccessType.WRITEBACK]
    assert len(writebacks) == 1
    assert writebacks[0].addr == 0


def test_miss_rate(engine):
    l1, l2, _ = _l1(engine)
    l1.array.fill(0x0)
    _read(l1, 0x0)
    _read(l1, 0x1000)
    engine.run()
    assert l1.miss_rate() == 0.5


def test_l1_prefetcher_issues_prefetch_fetches(engine):
    prefetcher = Prefetcher(64)
    l1, l2, _ = _l1(engine, prefetcher=prefetcher)
    _read(l1, 0x1000)
    engine.run()
    kinds = [r.access for r in l2.requests]
    assert AccessType.PREFETCH in kinds
    assert l1.stats.get("prefetches_issued") == 1


def test_prefetch_fill_does_not_complete_demand(engine):
    prefetcher = Prefetcher(64)
    l1, l2, done = _l1(engine, prefetcher=prefetcher)
    _read(l1, 0x1000)
    engine.run()
    # Complete the prefetch (second request) first.
    prefetch = [r for r in l2.requests if r.access is AccessType.PREFETCH][0]
    l2.requests.remove(prefetch)
    prefetch.complete(engine.now)
    assert not done
    l2.complete_next()
    assert done
    # The prefetched line is resident for a later access.
    assert l1.array.probe(0x1040)


def test_a_hit_naming_one_new_line_twice_issues_one_prefetch(engine):
    """A hit trains the IP-stride table.  At a stride of 8 B and degree
    2, a hit at offset 56 predicts two addresses in the next line; the
    prefetcher names that line once and the L1 fetches it once."""
    l1, l2, _ = _l1(engine, prefetcher=Prefetcher(64))
    l1.array.fill(0x1000)
    for addr in (0x1020, 0x1028, 0x1030):  # train: fill, stride, confirm
        assert _read(l1, addr) == HIT
    assert not l2.requests and len(l1.mshr) == 0
    assert _read(l1, 0x1038) == HIT  # predicts 0x1040 and 0x1048
    assert len(l1.mshr) == 1 and 0x1040 in l1.mshr
    assert l1.stats.get("prefetches_issued") == 1
    assert [(r.addr, r.access) for r in l2.requests] == [
        (0x1040, AccessType.PREFETCH)
    ]


@pytest.mark.parametrize("sets", [16, 3], ids=["mask", "modulo"])
def test_hit_path_leaves_the_array_as_touch_would(engine, sets):
    """The hit path inlined in ``L1Cache.access`` updates the set exactly
    as ``CacheArray.touch`` does: same dirty merge, same LRU order."""
    l1, l2, _ = _l1(engine)
    l1.array = CacheArray(sets * 4 * 64, 4, 64)
    reference = CacheArray(sets * 4 * 64, 4, 64)
    lines = [n * 64 for n in range(sets * 4)]
    for line in lines:
        l1.array.fill(line)
        reference.fill(line)
    rng = random.Random(5)
    for _ in range(400):
        addr = rng.choice(lines) + rng.randrange(64)
        is_write = rng.random() < 0.3
        assert l1.access(addr, 0, is_write, "op")
        assert reference.touch(addr, dirty=is_write)
        assert [list(s.items()) for s in l1.array._sets] == [
            list(s.items()) for s in reference._sets
        ]
    assert not l2.requests
