"""Stack-mode study: the same stacked silicon as memory, cache, or both.

The paper spends the stack exclusively on OS-visible memory and scales
ranks/MCs (Figure 5).  "Die-Stacked DRAM: Memory, Cache, or MemCache?"
(PAPERS.md) asks the orthogonal question this study runs: holding the
stack's capacity fixed, which *usage mode* wins?

* ``memory``    — the paper's organization (3D-fast), whole stack flat.
* ``L4-sram``   — stack as an L4 cache with an SRAM directory (which
  costs real L2 capacity — ``repro.stack3d.modes.sram_tag_bytes``).
* ``L4-alloy``  — tags-in-DRAM direct-mapped TADs with a MAP-I hit/miss
  predictor: no SRAM cost, mispredicts pay serialized off-chip fetches.
* ``MemCache``  — half direct segment / half cache at boot, with the
  observed-reuse monitor free to move the boundary.

Each mode is swept across stack capacities: at small capacities the
cache modes keep hot lines close while memory mode thrashes off-chip;
once the stack covers the footprint, memory mode's zero tag/predictor
overhead wins back the lead — the crossover is the study's output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..common.units import MIB
from ..system.config import (
    SystemConfig,
    config_3d_fast,
    config_l4_alloy,
    config_l4_cache,
    config_memcache,
)
from .report import format_table, with_sampling_note
from .runner import ResultTable

#: Mode rows of the study table, in presentation order.
MODE_ORDER = ("memory", "L4-sram", "L4-alloy", "MemCache")

#: Default stack capacities swept for the cache-bearing modes.
DEFAULT_CAPACITIES = (32 * MIB, 64 * MIB, 128 * MIB)


def build_mode_matrix(
    capacities: Sequence[int] = DEFAULT_CAPACITIES,
) -> List[SystemConfig]:
    """Flat memory plus every cache-bearing mode at every capacity."""
    configs: List[SystemConfig] = [config_3d_fast()]
    for capacity in capacities:
        configs.append(config_l4_cache(capacity))
        configs.append(config_l4_alloy(capacity))
        configs.append(config_memcache(capacity))
    return configs


@dataclass
class StackModesResult:
    """Mode x capacity sweep, reported as GM speedup over flat memory."""

    table: ResultTable
    capacities: List[int]
    mixes: List[str]

    def gm(self, config_name: str) -> float:
        return self.table.gm_speedup(config_name, "3D-fast")

    def column(self, prefix: str) -> List[float]:
        return [self.gm(f"{prefix}-{c // MIB}M") for c in self.capacities]

    def format(self) -> str:
        labels = [f"{c // MIB} MiB" for c in self.capacities]
        columns: Dict[str, List[float]] = {
            "memory": [1.0] * len(self.capacities),
            "L4-sram": self.column("L4-sram"),
            "L4-alloy": self.column("L4-alloy"),
            "MemCache": self.column("MemCache"),
        }
        return format_table(
            "Study: stack mode x capacity (GM speedup over flat memory)",
            labels,
            columns,
            note=with_sampling_note(
                "flat memory is the paper's 3D-fast organization; cache "
                "modes add an off-chip channel behind the stack "
                "(PAPERS.md: Memory, Cache, or MemCache?)",
                self.table,
            ),
        )
