"""Unit tests for one channel's DRAM array: the ``[rank][bank]`` grid
that :func:`repro.dram.build_banks` builds and a controller owns."""

import pytest

from repro.common.request import AccessType, MemoryRequest
from repro.common.stats import StatRegistry
from repro.dram import build_banks
from repro.dram.timing import ddr2_commodity
from repro.engine import Engine
from repro.interconnect.links import tsv_bus
from repro.memctrl.memsys import MainMemory


def test_rank_builds_banks():
    (rank,) = build_banks(ddr2_commodity(), num_ranks=1, banks_per_rank=8)
    assert len(rank) == 8
    assert len({id(bank) for bank in rank}) == 8


def test_rank_refresh_phases_are_staggered():
    timing = ddr2_commodity()
    grid = build_banks(timing, num_ranks=4, banks_per_rank=2)
    phases = [rank[0].refresh.phase for rank in grid]
    assert phases == [(i * 977) % timing.refresh_interval for i in range(4)]
    assert len(set(phases)) == 4
    # The phase follows the global rank id, not the position in the grid.
    (rank5,) = build_banks(timing, num_ranks=1, banks_per_rank=2, first_rank_id=5)
    assert rank5[0].refresh.phase == (5 * 977) % timing.refresh_interval


def test_rank_rejects_zero_banks():
    with pytest.raises(ValueError):
        build_banks(ddr2_commodity(), num_ranks=1, banks_per_rank=0)
    with pytest.raises(ValueError):
        build_banks(ddr2_commodity(), num_ranks=0, banks_per_rank=8)


def test_device_shape():
    grid = build_banks(ddr2_commodity(), num_ranks=4, banks_per_rank=8)
    assert [len(rank) for rank in grid] == [8] * 4


def test_banks_of_a_rank_share_refresh_and_activation_window():
    grid = build_banks(ddr2_commodity(), num_ranks=2, banks_per_rank=4)
    for rank in grid:
        assert all(bank.refresh is rank[0].refresh for bank in rank)
        assert all(bank.activations is rank[0].activations for bank in rank)
    assert grid[0][0].refresh is not grid[1][0].refresh
    assert grid[0][0].activations is not grid[1][0].activations


def test_device_bank_addressing_is_stable():
    """The bank an MRQ entry carries is the grid's bank at the entry's
    coordinates, on a non-power-of-two geometry too."""
    engine = Engine()
    memory = MainMemory(
        engine,
        ddr2_commodity(),
        bus_factory=lambda name: tsv_bus(width_bytes=64, name=name),
        num_mcs=3,
        total_ranks=6,
        banks_per_rank=6,
        aggregate_queue_capacity=3 * 64,
    )
    for page in range(0, 3 * 6 * 2 * 5, 7):
        addr = page * 4096
        controller = memory.controller_for(addr)
        assert controller.enqueue(MemoryRequest(addr, AccessType.READ))
        entry = controller.mrq.entries[-1]
        coords = entry.coords
        assert entry.bank is controller.banks[coords.rank][coords.bank]


def test_device_access_and_open_row_query():
    grid = build_banks(ddr2_commodity(), num_ranks=2, banks_per_rank=2)
    assert not grid[0][0].is_row_open(5)
    data_time, hit = grid[0][0].access(10_000_000, 5, False)
    assert not hit
    assert grid[0][0].is_row_open(5)
    # Other banks unaffected.
    assert not grid[1][0].is_row_open(5)


def test_first_rank_id_offsets_rank_numbering():
    registry = StatRegistry()
    grid = build_banks(
        ddr2_commodity(), num_ranks=2, banks_per_rank=2, registry=registry,
        first_rank_id=4, stat_prefix="offchip.",
    )
    names = [[bank.name for bank in rank] for rank in grid]
    assert names == [
        ["offchip.dram.rank4.bank0", "offchip.dram.rank4.bank1"],
        ["offchip.dram.rank5.bank0", "offchip.dram.rank5.bank1"],
    ]
    assert grid[1][1].stats is registry.group("offchip.dram.rank5.bank1")


def test_open_row_summary():
    grid = build_banks(ddr2_commodity(), num_ranks=1, banks_per_rank=2)
    grid[0][1].access(10_000_000, 9, False)
    assert [[bank.open_rows for bank in rank] for rank in grid] == [[(), (9,)]]
