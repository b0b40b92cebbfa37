"""System configurations for every organization the paper evaluates.

A :class:`SystemConfig` is a plain frozen dataclass; the named presets
below correspond to the configurations in Figures 4, 6, 7 and 9.  Use
``dataclasses.replace`` to derive sweeps (the experiment runners do).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from ..common.units import GIB, KIB, MIB
from ..memctrl.schedulers import SCHEDULERS
from ..mshr.factory import ORGANIZATIONS

#: DRAM timing presets accepted by ``dram_timing``.
TIMING_PRESETS = ("2d", "3d-commodity", "true-3d")

#: Processor-to-memory channel types accepted by ``memory_bus``.
BUS_PRESETS = ("fsb", "tsv8", "tsv64")

#: What the 3D stack *is* (see :mod:`repro.stack3d.modes`):
#: ``memory`` — flat OS-visible memory (the paper's model, and the
#: bit-identical default); ``cache`` — an L4 DRAM cache with SRAM tags
#: in front of off-chip DRAM.
STACK_MODES = ("memory", "cache")


@dataclass(frozen=True)
class SystemConfig:
    """Every knob of the simulated machine (defaults = Table 1 baseline)."""

    name: str = "2D"

    # Cores
    num_cores: int = 4
    dispatch_width: int = 4
    rob_size: int = 96

    # L1 data caches (per core)
    l1_size: int = 24 * KIB
    l1_assoc: int = 12
    l1_latency: int = 3
    l1_mshr_entries: int = 8
    l1_prefetch: bool = True

    # Data TLB (Table 1: 64-entry, 4-way; walk cost ~= one L2 access
    # plus change, since walks usually hit on-chip)
    dtlb_enabled: bool = True
    dtlb_entries: int = 64
    dtlb_assoc: int = 4
    dtlb_walk_penalty: int = 30

    # Shared L2
    l2_size: int = 12 * MIB
    l2_assoc: int = 24
    l2_banks: int = 16
    l2_latency: int = 9
    l2_interleave: str = "page"  # "page" (streamlined) | "line" (ablation)
    l2_prefetch: bool = True

    # Optional stacked L3 between the L2 and main memory (the paper's
    # "stack more cache instead" alternative; off in every paper config)
    l3_enabled: bool = False
    l3_size: int = 64 * MIB
    l3_assoc: int = 32
    l3_latency: int = 25

    # L2 miss handling architecture.  Table 1's "8 MSHR" is read as
    # entries *per MSHR bank*; the L2 MHA has one MSHR bank per memory
    # controller (Figure 5b), so single-MC configurations have 8 entries
    # total and a quad-MC machine has 8 per bank.
    l2_mshr_organization: str = "conventional"
    l2_mshr_per_bank: int = 8
    l2_mshr_dynamic: bool = False

    # Main memory organization
    dram_timing: str = "2d"
    memory_bus: str = "fsb"
    num_mcs: int = 1
    total_ranks: int = 8
    banks_per_rank: int = 8
    row_buffer_entries: int = 1
    mrq_capacity: int = 32  # aggregate across MCs
    scheduler: str = "fr-fcfs"
    mc_quantum: int = 2  # MC clocked at FSB speed in the 2D baseline
    # Per-channel transaction handling occupancy (arbitration + command
    # sequencing + completion bookkeeping).  The paper's Section 4.1 gains
    # from multiple MCs come from replicating this serialized front end.
    mc_transaction_overhead: int = 12

    # Stack mode (repro.stack3d.modes): what the 3D stack is used as.
    # "memory" leaves the machine byte-for-byte the paper's model;
    # "cache" puts an off-chip DRAM system (the 2D baseline's DDR2
    # channel over the FSB) behind the stack and runs the stack as an
    # L4 cache with tags in SRAM.
    stack_mode: str = "memory"
    l4_capacity: int = 64 * MIB
    l4_assoc: int = 8
    l4_tag_latency: int = 2  # SRAM tag lookup cycles (0 = same-cycle)
    l4_sram_tag_cost: bool = True  # shave L2 capacity for SRAM tags
    l4_warm_start: bool = False  # preload tags resident-clean (equivalence tests)

    # Address constants
    line_size: int = 64
    page_size: int = 4096
    dram_capacity: int = 8 * GIB

    def __post_init__(self) -> None:
        for field, known in (
            ("dram_timing", TIMING_PRESETS),
            ("memory_bus", BUS_PRESETS),
            ("l2_mshr_organization", ORGANIZATIONS),
            ("scheduler", SCHEDULERS),
            ("stack_mode", STACK_MODES),
        ):
            value = getattr(self, field)
            if value not in known:
                raise ValueError(f"{field} {value!r} not in {known}")
        if self.l2_interleave not in ("page", "line"):
            raise ValueError("l2_interleave must be 'page' or 'line'")
        if self.total_ranks % self.num_mcs:
            raise ValueError("total_ranks must divide evenly across MCs")
        if self.mrq_capacity % self.num_mcs:
            raise ValueError("mrq_capacity must divide evenly across MCs")
        if self.l2_mshr_per_bank < 1:
            raise ValueError("need at least one L2 MSHR entry per bank")
        if self.stack_mode != "memory":
            if self.l4_assoc < 1 or self.l4_tag_latency < 0:
                raise ValueError("l4_assoc must be >= 1, l4_tag_latency >= 0")
            set_bytes = self.l4_assoc * self.line_size
            if self.l4_capacity < set_bytes or self.l4_capacity % set_bytes:
                raise ValueError("l4_capacity must be a whole number of cache sets")

    def derive(self, **changes) -> "SystemConfig":
        """``dataclasses.replace`` with a shorter name."""
        return dataclasses.replace(self, **changes)


# ----------------------------------------------------------------------
# Section 3: previously proposed organizations (Figure 4)
# ----------------------------------------------------------------------

def config_2d() -> SystemConfig:
    """Baseline: off-chip DDR2 over the FSB, MC at FSB speed."""
    return SystemConfig(name="2D")


def config_3d() -> SystemConfig:
    """DRAM stacked on the cores; same arrays, bus/MC at core speed."""
    return config_2d().derive(
        name="3D",
        dram_timing="3d-commodity",
        memory_bus="tsv8",
        mc_quantum=1,
        mc_transaction_overhead=6,
    )


def config_3d_wide() -> SystemConfig:
    """3D plus a cache-line-wide (64 B) TSV data bus."""
    return config_3d().derive(name="3D-wide", memory_bus="tsv64")


def config_3d_fast() -> SystemConfig:
    """3D-wide plus true-3D split arrays (32.5% faster timing)."""
    return config_3d_wide().derive(name="3D-fast", dram_timing="true-3d")


# ----------------------------------------------------------------------
# Section 4: aggressive organizations (Figures 5/6)
# ----------------------------------------------------------------------

def config_aggressive(
    num_mcs: int = 4,
    total_ranks: int = 16,
    row_buffer_entries: int = 4,
    name: str = "",
) -> SystemConfig:
    """3D-fast with scaled MCs/ranks/row-buffer caches (Figure 6).

    The L2 MSHR file is banked per MC; banks keep a hardware-sensible
    minimum of 4 entries (a dual-MC machine therefore has the paper's 8
    aggregate entries; a quad-MC machine has 16 — see DESIGN.md).
    """
    label = name or f"{num_mcs}MC-{total_ranks}R-{row_buffer_entries}RB"
    return config_3d_fast().derive(
        name=label,
        num_mcs=num_mcs,
        total_ranks=total_ranks,
        row_buffer_entries=row_buffer_entries,
        l2_mshr_per_bank=max(4, 8 // num_mcs),
    )


def config_dual_mc() -> SystemConfig:
    """Figure 6(b)/7(a)'s "2 MCs, 8 ranks, 4 row buffers" configuration."""
    return config_aggressive(num_mcs=2, total_ranks=8, row_buffer_entries=4)


def config_quad_mc() -> SystemConfig:
    """Figure 6(b)/7(b)'s "4 MCs, 16 ranks, 4 row buffers" configuration."""
    return config_aggressive(num_mcs=4, total_ranks=16, row_buffer_entries=4)


# ----------------------------------------------------------------------
# Section 5: L2 MHA variants (Figures 7/9)
# ----------------------------------------------------------------------

def with_mshr(
    base: SystemConfig,
    organization: str = "conventional",
    scale: int = 1,
    dynamic: bool = False,
) -> SystemConfig:
    """Derive an L2-MHA variant: organization, capacity scale, tuning.

    ``scale`` multiplies the base configuration's per-bank capacity, as
    in Figure 7 ("we increased the MSHR capacity of each configuration
    by factors of 2, 4 and 8").
    """
    suffix = f"{organization}-{scale}x" + ("-dyn" if dynamic else "")
    return base.derive(
        name=f"{base.name}+{suffix}",
        l2_mshr_organization=organization,
        l2_mshr_per_bank=base.l2_mshr_per_bank * scale,
        l2_mshr_dynamic=dynamic,
    )


# ----------------------------------------------------------------------
# Stack as an L4 cache (repro.stack3d.modes)
# ----------------------------------------------------------------------

def config_l4_cache(
    capacity: int = 64 * MIB, base: Optional[SystemConfig] = None
) -> SystemConfig:
    """The 3D stack as an L4 DRAM cache with tags-in-SRAM.

    The stack keeps the 3D-fast organization (true-3D arrays, wide TSV
    bus, on-stack MCs); OS-visible memory moves behind it to an
    off-chip 2D channel.  SRAM tag state is charged against the L2.
    """
    base = base if base is not None else config_3d_fast()
    return base.derive(
        name=f"L4-sram-{capacity // MIB}M",
        stack_mode="cache",
        l4_capacity=capacity,
    )

