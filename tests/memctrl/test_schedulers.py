"""Unit tests for memory access schedulers."""

import pytest

from repro.common.request import AccessType, MemoryRequest
from repro.dram import build_banks
from repro.dram.timing import ddr2_commodity
from repro.memctrl.mapping import AddressMapping
from repro.memctrl.queue import MrqEntry
from repro.memctrl.schedulers import FcfsScheduler, FrFcfsScheduler, make_scheduler


def _entry(addr, arrival, setup, access=AccessType.READ):
    mapping, banks = setup
    coords = mapping.decompose(addr)
    request = MemoryRequest(addr, access)
    return MrqEntry(request, coords, arrival, banks[coords.rank][coords.bank])


@pytest.fixture()
def setup():
    mapping = AddressMapping(num_mcs=1, ranks_per_mc=2, banks_per_rank=2)
    banks = build_banks(ddr2_commodity(), num_ranks=2, banks_per_rank=2)
    return mapping, banks


def test_fcfs_picks_oldest(setup):
    entries = [_entry(0x3000, 10, setup), _entry(0x1000, 5, setup)]
    assert FcfsScheduler().select(entries).arrival == 5


def test_frfcfs_prefers_open_row(setup):
    older = _entry(0x1000, 5, setup)
    newer = _entry(0x5000, 10, setup)
    # Open the row that `newer` targets.
    newer.bank.access(10_000_000, newer.coords.row, False)
    chosen = FrFcfsScheduler().select([older, newer])
    assert chosen is newer


def test_frfcfs_falls_back_to_oldest_without_hits(setup):
    older = _entry(0x1000, 5, setup)
    newer = _entry(0x5000, 10, setup)
    chosen = FrFcfsScheduler().select([older, newer])
    assert chosen is older


def test_frfcfs_oldest_hit_among_several(setup):
    entries = [_entry(0x1000, 5, setup), _entry(0x5000, 1, setup)]
    for entry in entries:
        entry.bank.access(10_000_000, entry.coords.row, False)
    chosen = FrFcfsScheduler().select(entries)
    assert chosen.arrival == 1


def test_factory():
    from repro.memctrl.schedulers import WriteDrainScheduler

    assert isinstance(make_scheduler("fcfs"), FcfsScheduler)
    assert isinstance(make_scheduler("fr-fcfs"), FrFcfsScheduler)
    assert isinstance(make_scheduler("frfcfs-writedrain"), WriteDrainScheduler)
    with pytest.raises(ValueError):
        make_scheduler("magic")


def _write_entry(addr, arrival, setup):
    return _entry(addr, arrival, setup, AccessType.WRITEBACK)


def test_writedrain_prefers_reads_below_watermark(setup):
    from repro.memctrl.schedulers import WriteDrainScheduler

    scheduler = WriteDrainScheduler(high_watermark=3, low_watermark=1)
    read = _entry(0x1000, 10, setup)
    write = _write_entry(0x2000, 1, setup)  # older than the read
    chosen = scheduler.select([read, write])
    assert chosen is read


def test_writedrain_bursts_when_backlog_high(setup):
    from repro.memctrl.schedulers import WriteDrainScheduler

    scheduler = WriteDrainScheduler(high_watermark=2, low_watermark=0)
    read = _entry(0x1000, 10, setup)
    writes = [_write_entry(0x2000 + i * 0x1000, i, setup) for i in range(3)]
    # Backlog above the high watermark: drain mode serves writes even
    # though a read is pending, and keeps draining next time.
    first = scheduler.select([read] + writes)
    assert first.request.is_write
    second = scheduler.select([read] + writes[1:])
    assert second.request.is_write
    # Down at the low watermark the read wins again.
    third = scheduler.select([read, writes[2]])
    assert third is read or third.request.is_write  # depends on watermark
    drained = scheduler.select([read])
    assert drained is read


def test_writedrain_serves_writes_when_no_reads(setup):
    from repro.memctrl.schedulers import WriteDrainScheduler

    scheduler = WriteDrainScheduler()
    write = _write_entry(0x2000, 1, setup)
    assert scheduler.select([write]) is write


def test_writedrain_watermark_validation():
    from repro.memctrl.schedulers import WriteDrainScheduler

    with pytest.raises(ValueError):
        WriteDrainScheduler(high_watermark=2, low_watermark=2)
