"""Unit tests for the multi-controller memory system facade."""

import pytest

from repro.common.request import AccessType, MemoryRequest
from repro.dram.timing import ddr2_commodity
from repro.engine import Engine
from repro.interconnect.links import tsv_bus
from repro.memctrl.memsys import MainMemory


def _memory(num_mcs=2, total_ranks=8, capacity=32):
    engine = Engine()
    memory = MainMemory(
        engine,
        ddr2_commodity(),
        bus_factory=lambda name: tsv_bus(width_bytes=64, name=name),
        num_mcs=num_mcs,
        total_ranks=total_ranks,
        aggregate_queue_capacity=capacity,
    )
    return engine, memory


def test_queue_capacity_is_divided_evenly():
    _, memory = _memory(num_mcs=4, total_ranks=8, capacity=32)
    assert all(mc.mrq.capacity == 8 for mc in memory.controllers)


def test_requests_route_by_page():
    _, memory = _memory(num_mcs=2)
    assert memory.controller_for(0x0000) is memory.controllers[0]
    assert memory.controller_for(0x1000) is memory.controllers[1]
    assert memory.controller_for(0x2000) is memory.controllers[0]


def test_ranks_are_partitioned_with_global_ids():
    _, memory = _memory(num_mcs=2, total_ranks=8)
    names_mc0 = [rank[0].name for rank in memory.controllers[0].banks]
    names_mc1 = [rank[0].name for rank in memory.controllers[1].banks]
    assert names_mc0 == [f"dram.rank{r}.bank0" for r in (0, 1, 2, 3)]
    assert names_mc1 == [f"dram.rank{r}.bank0" for r in (4, 5, 6, 7)]


def test_end_to_end_completion():
    engine, memory = _memory()
    done = []
    for page in range(4):
        request = MemoryRequest(
            page * 4096, AccessType.READ, callback=done.append
        )
        assert memory.enqueue(request)
    engine.run()
    assert len(done) == 4
    assert all(r.completed_at is not None for r in done)


def test_row_hit_rate_aggregates_over_mcs():
    engine, memory = _memory()
    for page in range(2):
        memory.enqueue(MemoryRequest(page * 4096, AccessType.READ))
    engine.run()
    for page in range(2):
        memory.enqueue(MemoryRequest(page * 4096 + 64, AccessType.READ))
    engine.run()
    assert memory.row_hit_rate() == pytest.approx(0.5)


def test_validation():
    with pytest.raises(ValueError):
        _memory(num_mcs=3, total_ranks=8)  # uneven rank split
    with pytest.raises(ValueError):
        _memory(num_mcs=3, capacity=32)  # uneven queue split


def test_wait_for_space_routes_to_owning_mc():
    engine, memory = _memory(num_mcs=2, capacity=2)  # 1 entry per MC
    assert memory.enqueue(MemoryRequest(0x0000, AccessType.READ))
    assert not memory.enqueue(MemoryRequest(0x2000, AccessType.READ))
    woken = []
    memory.wait_for_space(0x2000, lambda: woken.append(True))
    engine.run()
    assert woken == [True]
