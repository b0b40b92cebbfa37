"""Unit tests for the memory request queue."""

import pytest

from repro.common.request import AccessType, MemoryRequest
from repro.memctrl.mapping import AddressMapping
from repro.memctrl.queue import MemoryRequestQueue, MrqEntry


#: Stands in for the entry's ``Bank``: the queue only carries it.
BANK = object()


def _entry_args(addr=0x1000):
    request = MemoryRequest(addr, AccessType.READ)
    coords = AddressMapping().decompose(addr)
    return request, coords


def test_push_until_full():
    queue = MemoryRequestQueue(capacity=2)
    assert queue.push(*_entry_args(), now=0, bank=BANK) is not None
    assert queue.push(*_entry_args(), now=1, bank=BANK) is not None
    assert queue.is_full
    assert queue.push(*_entry_args(), now=2, bank=BANK) is None
    assert len(queue) == 2


def test_entries_keep_arrival_order():
    queue = MemoryRequestQueue(capacity=4)
    for t in range(3):
        queue.push(*_entry_args(addr=t * 4096), now=t * 10, bank=BANK)
    arrivals = [e.arrival for e in queue.entries]
    assert arrivals == [0, 10, 20]


def test_remove_frees_capacity():
    queue = MemoryRequestQueue(capacity=1)
    entry = queue.push(*_entry_args(), now=0, bank=BANK)
    assert queue.is_full
    queue.remove(entry)
    assert queue.is_empty
    assert queue.push(*_entry_args(), now=1, bank=BANK) is not None


def test_remove_from_the_middle_keeps_arrival_order():
    queue = MemoryRequestQueue(capacity=8)
    entries = [
        queue.push(*_entry_args(addr=t * 4096), now=t * 10, bank=BANK)
        for t in range(6)
    ]
    queue.remove(entries[2])
    queue.remove(entries[4])
    assert queue.entries == [entries[0], entries[1], entries[3], entries[5]]
    assert len(queue) == 4
    assert queue.occupancy() == 4 / 8


def test_queue_push_returns_entry_with_bank():
    queue = MemoryRequestQueue(capacity=2)
    bank = object()
    entry = queue.push(*_entry_args(), now=5, bank=bank)
    assert isinstance(entry, MrqEntry)
    assert entry.bank is bank
    assert entry.arrival == 5
    assert queue.is_full is False
    queue.push(*_entry_args(addr=0x2000), now=6, bank=object())
    assert queue.is_full is True


def test_occupancy():
    queue = MemoryRequestQueue(capacity=4)
    queue.push(*_entry_args(), now=0, bank=BANK)
    assert queue.occupancy() == 0.25


def test_capacity_validation():
    with pytest.raises(ValueError):
        MemoryRequestQueue(capacity=0)
