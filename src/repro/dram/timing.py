"""DRAM timing parameter sets (Table 1 of the paper).

All values are integer CPU cycles at 3.333 GHz.  The paper gives:

* 2D / simple 3D memory: tRAS = 36 ns; tRCD = tCAS = tWR = tRP = 12 ns.
* "true 3D" split arrays: tRAS = 24.3 ns; others 8.1 ns each (the 32.5%
  Tezzaron improvement, conservatively taken from their 5-layer part).

Refresh follows the Samsung DDR2 datasheet the paper cites: 64 ms retention
off-chip, halved to 32 ms on-stack because of higher temperature.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..common.units import ms_to_cycles, ns_to_cycles


@dataclass(frozen=True)
class DramTiming:
    """Core DRAM timing constraints, in CPU cycles."""

    t_rcd: int  # ACT -> column command
    t_cas: int  # column read command -> first data
    t_rp: int  # PRE -> ACT
    t_ras: int  # ACT -> PRE (minimum row-open time, covers restore)
    t_wr: int  # end of write data -> PRE (write recovery)
    refresh_period: int  # full-array retention time, cycles
    rows_per_refresh: int = 8192  # rows refreshed per retention period
    t_rfc: int = ns_to_cycles(127.5)  # one refresh command's blackout
    # Column-to-column gap: a bank streams one line per burst, so
    # back-to-back column reads are spaced by the burst occupancy
    # (= tCAS for these parts).
    t_ccd: int = ns_to_cycles(12.0)
    # Inter-bank activation constraints within a rank (current limits):
    # ACT-to-ACT to different banks (tRRD) and the four-activate window
    # (tFAW).  DDR2-scale defaults.
    t_rrd: int = ns_to_cycles(7.5)
    t_faw: int = ns_to_cycles(37.5)

    def __post_init__(self) -> None:
        for field_name in ("t_rcd", "t_cas", "t_rp", "t_ras", "t_wr"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        if self.t_ras < self.t_rcd:
            raise ValueError("tRAS must cover at least tRCD")

    @property
    def t_rc(self) -> int:
        """Row cycle time: ACT-to-ACT on the same bank (tRAS + tRP)."""
        return self.t_ras + self.t_rp

    @property
    def refresh_interval(self) -> int:
        """Average gap between refresh commands (tREFI)."""
        return self.refresh_period // self.rows_per_refresh

    def scaled(self, factor: float) -> "DramTiming":
        """A copy with the array timings scaled by ``factor`` (>=1 cycle)."""
        return replace(
            self,
            t_rcd=max(1, round(self.t_rcd * factor)),
            t_cas=max(1, round(self.t_cas * factor)),
            t_rp=max(1, round(self.t_rp * factor)),
            t_ras=max(1, round(self.t_ras * factor)),
            t_wr=max(1, round(self.t_wr * factor)),
        )


def ddr2_commodity(refresh_ms: float = 64.0) -> DramTiming:
    """Table 1's off-chip (and simple-3D) DDR2 timing."""
    return DramTiming(
        t_rcd=ns_to_cycles(12.0),
        t_cas=ns_to_cycles(12.0),
        t_rp=ns_to_cycles(12.0),
        t_ras=ns_to_cycles(36.0),
        t_wr=ns_to_cycles(12.0),
        refresh_period=ms_to_cycles(refresh_ms),
    )


def true_3d(refresh_ms: float = 32.0) -> DramTiming:
    """Table 1's true-3D split-array timing (on-stack refresh period)."""
    return DramTiming(
        t_rcd=ns_to_cycles(8.1),
        t_cas=ns_to_cycles(8.1),
        t_rp=ns_to_cycles(8.1),
        t_ras=ns_to_cycles(24.3),
        t_wr=ns_to_cycles(8.1),
        refresh_period=ms_to_cycles(refresh_ms),
        t_ccd=ns_to_cycles(8.1),
        t_rrd=ns_to_cycles(5.1),
        t_faw=ns_to_cycles(25.3),
    )


def stacked_commodity(refresh_ms: float = 32.0) -> DramTiming:
    """Commodity array timing but with the on-stack refresh period.

    Used by the plain ``3D`` and ``3D-wide`` organizations: the arrays are
    unchanged (tCAS, tRAS, ... identical to 2D) but the stack runs hotter,
    so retention halves.
    """
    return DramTiming(
        t_rcd=ns_to_cycles(12.0),
        t_cas=ns_to_cycles(12.0),
        t_rp=ns_to_cycles(12.0),
        t_ras=ns_to_cycles(36.0),
        t_wr=ns_to_cycles(12.0),
        refresh_period=ms_to_cycles(refresh_ms),
    )
