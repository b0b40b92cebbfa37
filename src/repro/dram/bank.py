"""Analytic DRAM bank model.

The bank keeps *ready times* instead of a per-cycle state machine: given a
proposed start cycle and a target row, :meth:`Bank.access` computes when
the data would be available at the device pins, updates the bank's
internal ready times, and reports whether the access hit in the
row-buffer cache.  This gives Ramulator-style timing fidelity for the
constraints that matter to the paper (row hits vs misses, tRC serialization,
write-recovery on dirty evictions, refresh blackouts) at a tiny fraction
of the event count.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..common.stats import StatGroup, StatRegistry
from .activation import ActivationWindow
from .refresh import RefreshSchedule
from .rowbuffer import RowBufferCache
from .timing import DramTiming


class Bank:
    """One DRAM bank: a bitcell array plus a row-buffer cache."""

    # "__dict__" holds only the per-instance method wrappers that
    # repro.validate.hooks installs; the snapshot walk reads the other
    # slots and never that dict.
    __slots__ = (
        "timing", "refresh", "activations", "row_buffers", "stats",
        "_c_row_hits", "_c_row_misses", "_c_dirty_evictions", "name",
        "_array_ready", "_bank_ready", "_epoch", "__dict__",
    )

    def __init__(
        self,
        timing: DramTiming,
        refresh: RefreshSchedule,
        row_buffer_entries: int = 1,
        stats: Optional[StatGroup] = None,
        name: str = "bank",
        activations: Optional[ActivationWindow] = None,
    ) -> None:
        self.timing = timing
        self.refresh = refresh
        # Shared per-rank tRRD/tFAW governor (private one when absent,
        # which effectively disables cross-bank coupling in unit tests).
        self.activations = (
            activations if activations is not None else ActivationWindow(timing)
        )
        # Open-page: rows stay latched in the row-buffer cache for reuse.
        self.row_buffers = RowBufferCache(row_buffer_entries)
        self.stats = stats if stats is not None else StatGroup(name)
        # Bound counter slots: access() runs once per DRAM command, so a
        # single attribute store replaces a string-keyed dict update.
        self._c_row_hits = self.stats.counter("row_hits")
        self._c_row_misses = self.stats.counter("row_misses")
        self._c_dirty_evictions = self.stats.counter("dirty_evictions")
        self.name = name
        # Cycle when the bitcell array can accept a new ACTIVATE.
        self._array_ready = 0
        # Cycle when the bank can accept its next column command.
        self._bank_ready = 0
        # Refresh epoch last observed; crossing an epoch closes open rows
        # (the array is precharged for the refresh burst).
        self._epoch = -1

    @property
    def open_rows(self) -> Tuple[int, ...]:
        return self.row_buffers.open_rows

    def is_row_open(self, row: int) -> bool:
        """Non-mutating row-hit check (FR-FCFS reads it inline)."""
        return row in self.row_buffers

    def earliest_start(self, time: int) -> int:
        """Earliest cycle >= ``time`` the bank could begin a new access.

        The controller's ready scan and :meth:`access` compute this
        inline; this method is their reference."""
        ready = self._bank_ready
        return self.refresh.earliest_available(time if time > ready else ready)

    def access(self, start: int, row: int, is_write: bool) -> Tuple[int, bool]:
        """Perform an access beginning no earlier than ``start``.

        Returns ``(data_time, row_hit)`` where ``data_time`` is the cycle
        the first data beat is available at (reads) or accepted by
        (writes) the device.  The start cycle is
        ``earliest_start(start)``; entering a new refresh epoch
        (``refresh.epoch`` of that cycle) closes every open row first.
        Both are computed inline.
        """
        begin = self._bank_ready
        if begin < start:
            begin = start
        refresh = self.refresh
        phase = refresh.phase
        if begin >= phase:
            t_refi = refresh.t_refi
            epoch = (begin - phase) // t_refi
            offset = begin - phase - epoch * t_refi
            if offset < refresh.t_rfc:
                # Past the blackout, still inside window ``epoch``.
                begin += refresh.t_rfc - offset
        else:
            epoch = -1
        if epoch != self._epoch:
            self._epoch = epoch
            dropped = self.row_buffers.evict_all()
            if dropped:
                self.stats.add("refresh_row_closures", len(dropped))

        rows = self.row_buffers._entries
        if row in rows:
            # RowBufferCache.lookup + touch_dirty: MRU, dirty on a write.
            rows[row] = rows.pop(row) or is_write
            self._bank_ready = begin + self.timing.t_ccd
            self._c_row_hits.value += 1.0
            return begin + self.timing.t_cas, True

        # Row miss: activate the row into a buffer entry.  With a
        # multi-entry row-buffer cache the previous rows stay latched, but
        # the array itself must have finished its previous row cycle, and
        # the rank's tRRD/tFAW activation budget must allow a new ACT.
        act_start = max(begin, self._array_ready)
        evicted = self.row_buffers.insert(row, dirty=is_write)
        if evicted is not None and evicted[1]:
            # Dirty eviction: the stale latched row must be restored to
            # the array before the new activate can use it.
            act_start += self.timing.t_wr
            self._c_dirty_evictions.value += 1.0
        act_start = self.activations.earliest_activate(act_start)
        self.activations.record(act_start)
        data_time = act_start + self.timing.t_rcd + self.timing.t_cas
        # The array finishes the row cycle (restore + precharge) on its
        # own; the latched copy continues to serve hits meanwhile.
        self._array_ready = act_start + self.timing.t_rc
        self._bank_ready = data_time
        self._c_row_misses.value += 1.0
        return data_time, False

    def functional_touch(self, row: int, is_write: bool) -> None:
        """Functional-warmup path: update open-row state only.

        Mirrors the row-buffer transitions of :meth:`access` — MRU
        promotion on a hit, activation (with eviction) on a miss — but
        touches no timing state and no statistics.
        """
        if self.row_buffers.lookup(row):
            if is_write:
                self.row_buffers.touch_dirty(row)
            return
        self.row_buffers.insert(row, dirty=is_write)


def build_banks(
    timing: DramTiming,
    num_ranks: int,
    banks_per_rank: int,
    row_buffer_entries: int = 1,
    registry: Optional[StatRegistry] = None,
    first_rank_id: int = 0,
    stat_prefix: str = "",
) -> List[List[Bank]]:
    """One memory channel's banks as a ``[rank][bank]`` grid.

    The banks of a rank share one refresh schedule (all-bank refresh, as
    on the DDR2 parts the paper models) and one tRRD/tFAW activation
    window.  Ranks are numbered globally from ``first_rank_id``: the
    global id staggers each rank's refresh phase across the refresh
    interval and names its banks' stat groups
    (``{stat_prefix}dram.rank{id}.bank{b}``).
    """
    if num_ranks < 1 or banks_per_rank < 1:
        raise ValueError("need at least one rank and one bank per rank")
    grid = []
    for rank_id in range(first_rank_id, first_rank_id + num_ranks):
        refresh = RefreshSchedule(
            timing, phase=(rank_id * 977) % max(1, timing.refresh_interval)
        )
        activations = ActivationWindow(timing)
        banks = []
        for bank_id in range(banks_per_rank):
            name = f"{stat_prefix}dram.rank{rank_id}.bank{bank_id}"
            stats = registry.group(name) if registry is not None else None
            banks.append(
                Bank(timing, refresh, row_buffer_entries, stats, name, activations)
            )
        grid.append(banks)
    return grid
