"""A DRAM rank: a set of banks sharing a refresh schedule."""

from __future__ import annotations

from typing import List, Optional

from ..common.stats import StatRegistry
from .activation import ActivationWindow
from .bank import Bank
from .refresh import RefreshSchedule
from .timing import DramTiming


class Rank:
    """One rank with ``num_banks`` independent banks.

    All banks in the rank share one refresh schedule (all-bank refresh,
    as on the DDR2 parts the paper models).
    """

    def __init__(
        self,
        rank_id: int,
        timing: DramTiming,
        num_banks: int = 8,
        row_buffer_entries: int = 1,
        registry: Optional[StatRegistry] = None,
        refresh_phase: Optional[int] = None,
        stat_prefix: str = "",
    ) -> None:
        if num_banks < 1:
            raise ValueError("a rank needs at least one bank")
        self.rank_id = rank_id
        self.timing = timing
        if refresh_phase is None:
            # Stagger ranks across the refresh interval by default.
            refresh_phase = (rank_id * 977) % max(1, timing.refresh_interval)
        self.refresh = RefreshSchedule(timing, phase=refresh_phase)
        # All banks in the rank share the tRRD/tFAW activation budget.
        self.activations = ActivationWindow(timing)
        self.banks: List[Bank] = []
        for bank_id in range(num_banks):
            name = f"{stat_prefix}dram.rank{rank_id}.bank{bank_id}"
            stats = registry.group(name) if registry is not None else None
            self.banks.append(
                Bank(
                    timing,
                    self.refresh,
                    row_buffer_entries=row_buffer_entries,
                    stats=stats,
                    name=name,
                    activations=self.activations,
                )
            )

    @property
    def num_banks(self) -> int:
        return len(self.banks)

    def bank(self, bank_id: int) -> Bank:
        return self.banks[bank_id]

