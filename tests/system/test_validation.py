"""The analytic latency model must agree exactly with the simulator."""

import pytest

from repro.common.request import AccessType, MemoryRequest
from repro.engine import Engine
from repro.interconnect.links import offchip_fsb, tsv_bus
from repro.memctrl.memsys import MainMemory
from repro.system.config import config_2d, config_3d, config_3d_fast, config_3d_wide
from repro.system.machine import _timing_for
from repro.system.validation import (
    latency_ladder,
    unloaded_read_latency,
)


def _simulate_one_read(config, second_to_same_row=False):
    """Drive one isolated read (optionally a row-hit follow-up)."""
    engine = Engine()

    def bus_factory(name):
        if config.memory_bus == "fsb":
            return offchip_fsb(name=name)
        width = 8 if config.memory_bus == "tsv8" else 64
        return tsv_bus(width_bytes=width, name=name)

    memory = MainMemory(
        engine,
        _timing_for(config),
        bus_factory=bus_factory,
        num_mcs=config.num_mcs,
        total_ranks=config.total_ranks,
        mc_quantum=config.mc_quantum,
        mc_transaction_overhead=config.mc_transaction_overhead,
    )
    # Park refreshes far away so the isolated read is clean.
    for mc in memory.controllers:
        for rank in mc.banks:
            rank[0].refresh.phase = 10**9  # shared by the rank's banks

    first = MemoryRequest(0x0, AccessType.READ, created_at=0)
    memory.enqueue(first)
    engine.run()
    if not second_to_same_row:
        return first.completed_at - first.created_at
    issue_time = engine.now
    second = MemoryRequest(0x40, AccessType.READ, created_at=issue_time)
    memory.enqueue(second)
    engine.run()
    return second.completed_at - issue_time


@pytest.mark.parametrize(
    "factory", [config_2d, config_3d, config_3d_wide, config_3d_fast]
)
def test_simulated_miss_latency_matches_analytic(factory):
    config = factory()
    analytic = unloaded_read_latency(config, row_hit=False).total
    simulated = _simulate_one_read(config)
    assert simulated == analytic


@pytest.mark.parametrize(
    "factory", [config_2d, config_3d, config_3d_wide, config_3d_fast]
)
def test_simulated_hit_latency_matches_analytic(factory):
    config = factory()
    analytic = unloaded_read_latency(config, row_hit=True).total
    simulated = _simulate_one_read(config, second_to_same_row=True)
    assert simulated == analytic


def test_ladder_orders_configurations():
    """Unloaded latencies already tell the Figure 4 story qualitatively."""
    configs = [config_2d(), config_3d(), config_3d_wide(), config_3d_fast()]
    misses = [unloaded_read_latency(c).total for c in configs]
    assert misses[0] > misses[1] >= misses[2] > misses[3]
    text = latency_ladder(configs)
    assert "2D" in text and "3D-fast" in text


def test_breakdown_components():
    breakdown = unloaded_read_latency(config_2d())
    timing = _timing_for(config_2d())
    assert breakdown.row_activate == timing.t_rcd
    assert breakdown.column_access == timing.t_cas
    assert breakdown.first_beat == 2  # one FSB beat
    assert breakdown.command_wire == breakdown.return_wire > 0
    assert breakdown.total == sum(
        (
            breakdown.command_wire,
            breakdown.row_activate,
            breakdown.column_access,
            breakdown.first_beat,
            breakdown.return_wire,
        )
    )
