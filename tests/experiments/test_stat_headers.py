"""Regression pins for stat/report surfaces the stack modes extend.

The L4 facade adds a stat group, result extras, and a study table.
These tests pin the *orderings* — ``StatGroup.items()`` insertion
order, ``MachineResult.extra`` key order, the study table header — so
a refactor that silently reorders them (and thereby perturbs every
golden table and dump downstream) fails here first, and so memory mode
provably gains none of the new surfaces.
"""

from __future__ import annotations

from repro.common.units import MIB
from repro.experiments.stack_modes import (
    DEFAULT_CAPACITIES,
    MODE_ORDER,
    StackModesResult,
)
from repro.system.config import config_3d_fast, config_l4_cache
from repro.system.machine import Machine

from tests.stack3d.test_mode_equivalence import _build_facade

#: The l4 StatGroup's counters in creation order — the order
#: ``items()`` yields and every dump/table renders.  Append-only:
#: inserting a counter anywhere but the end perturbs golden output.
L4_COUNTER_ORDER = (
    "accesses",
    "hits",
    "misses",
    "merges",
    "writeback_hits",
    "writeback_misses",
    "direct_accesses",
    "bypass_accesses",
    "fills",
    "dirty_evictions",
    "offchip_reads",
    "offchip_writebacks",
    "pred_hits",
    "pred_misses",
    "false_hits",
    "false_misses",
    "mshr_stalls",
    "repartitions",
    "flushed_lines",
)

#: ``MachineResult.extra`` key order on a cache-mode machine: the
#: pre-existing energy keys stay first, the l4 keys follow in facade
#: order, the SRAM-tag shave last.
CACHE_MODE_EXTRA_ORDER = (
    "dram_dynamic_nj_per_access",
    "dram_avg_power_mw",
    "l4_hit_rate",
    "l4_offchip_reads",
    "l4_mispredict_rate",
    "l4_cache_fraction",
    "l4_repartitions",
    "l4_tag_shave_bytes",
)


def test_l4_stat_group_items_order_is_pinned():
    _, facade = _build_facade()
    assert tuple(key for key, _ in facade.stats.items()) == L4_COUNTER_ORDER


def test_memory_mode_has_no_l4_surfaces():
    machine = Machine(config_3d_fast(), ["gzip"] * 4)
    assert machine.l4 is None
    groups = machine.registry.dump()
    assert not [n for n in groups if n == "l4" or n.startswith("offchip.")]
    result = machine.run(warmup_instructions=500, measure_instructions=1500)
    # Memory mode's extras: the pre-existing energy keys and none of
    # the l4 surfaces.
    assert tuple(result.extra) == CACHE_MODE_EXTRA_ORDER[:2]


def test_cache_mode_extra_keys_extend_in_pinned_order():
    config = config_l4_cache(8 * MIB, base=config_3d_fast())
    machine = Machine(config, ["gzip"] * 4)
    result = machine.run(warmup_instructions=500, measure_instructions=1500)
    assert tuple(result.extra) == CACHE_MODE_EXTRA_ORDER
    groups = machine.registry.dump()
    assert "l4" in groups
    assert [n for n in groups if n.startswith("offchip.")]
    # The dump sorts keys within a group; every pinned counter is there.
    assert set(L4_COUNTER_ORDER) <= set(groups["l4"])


class _StubTable:
    """gm_speedup stub: lets format() render without running a sweep."""

    def gm_speedup(self, name, baseline):
        return 1.0

    def sampling_note(self):
        return None


def test_stack_modes_table_header_is_pinned():
    result = StackModesResult(
        table=_StubTable(),
        capacities=list(DEFAULT_CAPACITIES),
        mixes=["H1"],
    )
    lines = result.format().splitlines()
    assert lines[2] == "          memory  L4-sram  L4-alloy  MemCache"
    assert tuple(MODE_ORDER) == ("memory", "L4-sram", "L4-alloy", "MemCache")
    assert lines[4].startswith("32 MiB")
