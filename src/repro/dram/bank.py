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

from typing import Optional, Tuple

from ..common.stats import StatGroup
from .activation import ActivationWindow
from .refresh import RefreshSchedule
from .rowbuffer import RowBufferCache
from .timing import DramTiming

#: Row-buffer page policies accepted in configs (``dram_page_policy``).
PAGE_POLICIES = ("open", "closed")


class Bank:
    """One DRAM bank: a bitcell array plus a row-buffer cache."""

    def __init__(
        self,
        timing: DramTiming,
        refresh: RefreshSchedule,
        row_buffer_entries: int = 1,
        stats: Optional[StatGroup] = None,
        name: str = "bank",
        activations: Optional[ActivationWindow] = None,
        page_policy: str = "open",
    ) -> None:
        if page_policy not in PAGE_POLICIES:
            raise ValueError(f"unknown page policy {page_policy!r}")
        self.timing = timing
        self.refresh = refresh
        # Shared per-rank tRRD/tFAW governor (private one when absent,
        # which effectively disables cross-bank coupling in unit tests).
        self.activations = (
            activations if activations is not None else ActivationWindow(timing)
        )
        # "open" keeps rows latched in the row-buffer cache for reuse;
        # "closed" auto-precharges after every access (no retention, no
        # conflict penalty -- every access pays exactly tRCD + tCAS).
        self.page_policy = page_policy
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
        """Non-mutating check used by FR-FCFS scheduling."""
        return row in self.row_buffers

    def earliest_start(self, time: int) -> int:
        """Earliest cycle >= ``time`` the bank could begin a new access."""
        ready = self._bank_ready
        return self.refresh.earliest_available(time if time > ready else ready)

    def access(self, start: int, row: int, is_write: bool) -> Tuple[int, bool]:
        """Perform an access beginning no earlier than ``start``.

        Returns ``(data_time, row_hit)`` where ``data_time`` is the cycle
        the first data beat is available at (reads) or accepted by
        (writes) the device.
        """
        begin = self.earliest_start(start)
        self._maybe_cross_refresh_epoch(begin)

        if self.page_policy == "closed":
            act_start = max(begin, self._array_ready)
            act_start = self.activations.earliest_activate(act_start)
            self.activations.record(act_start)
            data_time = act_start + self.timing.t_rcd + self.timing.t_cas
            self._array_ready = act_start + self.timing.t_rc
            self._bank_ready = data_time
            self._c_row_misses.value += 1.0
            return data_time, False

        if self.row_buffers.lookup(row):
            data_time = begin + self.timing.t_cas
            if is_write:
                self.row_buffers.touch_dirty(row)
            self._bank_ready = begin + self.timing.t_ccd
            self._c_row_hits.value += 1.0
            return data_time, True

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
        touches no timing state and no statistics.  Closed-page banks
        retain nothing, so this is a no-op there.
        """
        if self.page_policy == "closed":
            return
        if self.row_buffers.lookup(row):
            if is_write:
                self.row_buffers.touch_dirty(row)
            return
        self.row_buffers.insert(row, dirty=is_write)

    def _maybe_cross_refresh_epoch(self, time: int) -> None:
        epoch = self.refresh.epoch(time)
        if epoch != self._epoch:
            self._epoch = epoch
            dropped = self.row_buffers.evict_all()
            if dropped:
                self.stats.add("refresh_row_closures", len(dropped))

