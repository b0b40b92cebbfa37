"""The DRAM device array: every rank and bank behind one memory channel.

A :class:`DramDevice` owns the ranks assigned to one memory-controller
channel.  In the paper's multi-MC organizations (Figure 5) each MC owns a
disjoint subset of the ranks, so each MC gets its own ``DramDevice``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..common.stats import StatRegistry
from .bank import Bank
from .rank import Rank
from .timing import DramTiming


class DramDevice:
    """All ranks reachable through one memory channel."""

    def __init__(
        self,
        timing: DramTiming,
        num_ranks: int = 8,
        banks_per_rank: int = 8,
        row_buffer_entries: int = 1,
        registry: Optional[StatRegistry] = None,
        first_rank_id: int = 0,
        stat_prefix: str = "",
    ) -> None:
        if num_ranks < 1:
            raise ValueError("need at least one rank")
        self.timing = timing
        self.ranks: List[Rank] = [
            Rank(
                first_rank_id + i,
                timing,
                num_banks=banks_per_rank,
                row_buffer_entries=row_buffer_entries,
                registry=registry,
                stat_prefix=stat_prefix,
            )
            for i in range(num_ranks)
        ]
        # Flat [rank][bank] grid: bank() is on the controller's per-entry
        # scheduling scan, so it indexes instead of chaining method calls.
        self._bank_grid = [rank.banks for rank in self.ranks]

    @property
    def num_ranks(self) -> int:
        return len(self.ranks)

    @property
    def banks_per_rank(self) -> int:
        return self.ranks[0].num_banks

    @property
    def total_banks(self) -> int:
        return sum(rank.num_banks for rank in self.ranks)

    def bank(self, rank_id: int, bank_id: int) -> Bank:
        """The bank at local ``(rank, bank)`` coordinates."""
        return self._bank_grid[rank_id][bank_id]

    def is_row_open(self, rank_id: int, bank_id: int, row: int) -> bool:
        return self.bank(rank_id, bank_id).is_row_open(row)

    def access(
        self, rank_id: int, bank_id: int, row: int, start: int, is_write: bool
    ) -> Tuple[int, bool]:
        """Access a bank; returns ``(data_time, row_hit)``."""
        return self._bank_grid[rank_id][bank_id].access(start, row, is_write)

    def open_row_summary(self) -> List[Tuple[int, int, Tuple[int, ...]]]:
        """(rank, bank, open rows) triples — diagnostic helper."""
        summary = []
        for rank in self.ranks:
            for bank_id, bank in enumerate(rank.banks):
                summary.append((rank.rank_id, bank_id, bank.open_rows))
        return summary

