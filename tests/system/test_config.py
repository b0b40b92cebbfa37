"""Unit tests for system configuration presets."""

import pytest

from repro.common.units import GIB, KIB, MIB
from repro.system.config import (
    SystemConfig,
    config_2d,
    config_3d,
    config_3d_fast,
    config_3d_wide,
    config_aggressive,
    config_dual_mc,
    config_quad_mc,
    with_mshr,
)


def test_baseline_matches_table1():
    config = config_2d()
    assert config.num_cores == 4
    assert config.rob_size == 96
    assert config.dispatch_width == 4
    assert config.l1_size == 24 * KIB and config.l1_assoc == 12
    assert config.l1_mshr_entries == 8
    assert config.l2_size == 12 * MIB and config.l2_assoc == 24
    assert config.l2_banks == 16 and config.l2_latency == 9
    assert config.l2_mshr_per_bank == 8
    assert config.total_ranks == 8 and config.banks_per_rank == 8
    assert config.dram_capacity == 8 * GIB
    assert config.memory_bus == "fsb" and config.mc_quantum == 2


def test_figure4_ladder():
    assert config_2d().dram_timing == "2d"
    c3d = config_3d()
    assert c3d.dram_timing == "3d-commodity"
    assert c3d.memory_bus == "tsv8"
    assert c3d.mc_quantum == 1
    wide = config_3d_wide()
    assert wide.memory_bus == "tsv64"
    assert wide.dram_timing == "3d-commodity"
    fast = config_3d_fast()
    assert fast.memory_bus == "tsv64"
    assert fast.dram_timing == "true-3d"


def test_aggressive_configs():
    dual = config_dual_mc()
    assert (dual.num_mcs, dual.total_ranks, dual.row_buffer_entries) == (2, 8, 4)
    quad = config_quad_mc()
    assert (quad.num_mcs, quad.total_ranks, quad.row_buffer_entries) == (4, 16, 4)
    custom = config_aggressive(num_mcs=2, total_ranks=16, row_buffer_entries=3)
    assert custom.name == "2MC-16R-3RB"


def test_with_mshr_derivation():
    base = config_quad_mc()
    derived = with_mshr(base, organization="vbf", scale=8, dynamic=True)
    assert derived.l2_mshr_organization == "vbf"
    # Scale multiplies the base per-bank capacity (4 at quad-MC).
    assert derived.l2_mshr_per_bank == base.l2_mshr_per_bank * 8 == 32
    assert derived.l2_mshr_dynamic
    assert "vbf-8x-dyn" in derived.name
    # The base is untouched (frozen dataclass).
    assert base.l2_mshr_per_bank == 4


def test_derive_shorthand():
    config = config_2d().derive(num_mcs=2, total_ranks=8)
    assert config.num_mcs == 2


@pytest.mark.parametrize(
    "changes",
    [
        dict(dram_timing="4d"),
        dict(memory_bus="smoke-signals"),
        dict(l2_interleave="diagonal"),
        dict(num_mcs=3),  # 8 ranks don't split by 3
        dict(num_mcs=4, mrq_capacity=30),
        dict(l2_mshr_per_bank=0),
    ],
)
def test_validation(changes):
    with pytest.raises(ValueError):
        config_2d().derive(**changes)


@pytest.mark.parametrize(
    "field",
    ["scheduler", "l2_mshr_organization"],
)
def test_unknown_policy_name_is_refused_on_construction(field):
    """A misspelt or retired name fails when the config is built, naming
    the field, not later in every cell that builds a machine from it."""
    with pytest.raises(ValueError, match=f"^{field} 'retired' not in"):
        config_2d().derive(**{field: "retired"})


def test_config_is_frozen():
    config = config_2d()
    with pytest.raises(Exception):
        config.num_cores = 8
