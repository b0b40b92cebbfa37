"""Unit tests for the memory request queue.

The queue is the controller's arrival-ordered entry list:
``MemoryController.enqueue`` appends while it has room and the pump
removes the entry it issues, so the queue's rules are tested through
the controller.
"""

import pytest

from repro.common.request import AccessType, MemoryRequest
from repro.dram import build_banks
from repro.dram.timing import ddr2_commodity
from repro.engine import Engine
from repro.interconnect.bus import Bus
from repro.memctrl.controller import MemoryController
from repro.memctrl.mapping import AddressMapping
from repro.memctrl.queue import MemoryRequestQueue, MrqEntry
from repro.memctrl.schedulers import FrFcfsScheduler


class _PickRequest:
    """Scheduler that issues the queued entries of ``order``'s requests,
    in that order."""

    single_trivial = False

    def __init__(self, order):
        self.order = list(order)

    def select(self, ready):
        target = self.order.pop(0)
        return next(entry for entry in ready if entry.request is target)


def _mc(capacity, scheduler=None):
    """A one-channel controller (2 ranks x 2 banks, refresh out of the
    way) and its engine."""
    engine = Engine()
    banks = build_banks(ddr2_commodity(), num_ranks=2, banks_per_rank=2)
    for rank in banks:
        rank[0].refresh.phase = 10**9
    mc = MemoryController(
        0, engine, banks, Bus(width_bytes=64), scheduler or FrFcfsScheduler(),
        AddressMapping(num_mcs=1, ranks_per_mc=2, banks_per_rank=2),
        queue_capacity=capacity,
    )
    return mc, engine


def _read(addr=0x1000):
    return MemoryRequest(addr, AccessType.READ)


def test_push_until_full():
    mc, _ = _mc(capacity=2)
    assert mc.enqueue(_read()) is True
    assert mc.enqueue(_read()) is True
    assert len(mc.mrq) == mc.mrq.capacity == 2
    assert mc.enqueue(_read()) is False
    assert len(mc.mrq) == 2
    assert mc.stats.get("mrq_rejections") == 1


def test_entries_keep_arrival_order():
    mc, engine = _mc(capacity=4)
    requests = []
    for t in range(3):
        # The engine never runs here: the clock is moved by hand so the
        # entries queue at cycles 0, 10 and 20 without being issued.
        engine.now = t * 10
        requests.append(_read(addr=t * 4096))
        mc.enqueue(requests[-1])
    assert [e.arrival for e in mc.mrq.entries] == [0, 10, 20]
    assert [e.request for e in mc.mrq.entries] == requests


def test_remove_frees_capacity():
    mc, engine = _mc(capacity=1)
    assert mc.enqueue(_read())
    assert not mc.enqueue(_read())
    engine.run()  # the pump issues the one entry
    assert len(mc.mrq) == 0
    assert mc.enqueue(_read())


def test_remove_from_the_middle_keeps_arrival_order():
    requests = [_read(addr=t * 4096) for t in range(6)]
    mc, engine = _mc(
        capacity=8, scheduler=_PickRequest([requests[2], requests[4]])
    )
    for request in requests:
        mc.enqueue(request)
    engine.run(until=1)  # two pumps: cycles 0 and 1
    assert [e.request for e in mc.mrq.entries] == [
        requests[0], requests[1], requests[3], requests[5]
    ]
    assert len(mc.mrq) == 4


def test_queue_push_returns_entry_with_bank():
    mc, engine = _mc(capacity=2)
    engine.now = 5
    request = _read(addr=0x3000)
    assert mc.enqueue(request)
    entry = mc.mrq.entries[-1]
    assert isinstance(entry, MrqEntry)
    coords = mc.mapping.decompose(0x3000)
    assert entry.coords == coords
    assert entry.bank is mc.banks[coords.rank][coords.bank]
    assert entry.arrival == 5 and entry.request is request


def test_occupancy():
    """Every accepted enqueue adds the queue depth it leaves behind."""
    mc, _ = _mc(capacity=4)
    mc.enqueue(_read())
    mc.enqueue(_read(addr=0x2000))
    assert len(mc.mrq) / mc.mrq.capacity == 0.5
    assert mc.stats.get("mrq_occupancy_sum") == 1 + 2


def test_capacity_validation():
    with pytest.raises(ValueError):
        MemoryRequestQueue(capacity=0)
