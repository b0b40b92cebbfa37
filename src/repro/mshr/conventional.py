"""Conventional fully-associative MSHR file.

This models the traditional CAM-based organization: every slot is
compared against the search address in parallel, so every operation costs
exactly one probe (one cycle).  It is the paper's "ideal (and
impractical) single-cycle, fully-associative traditional MSHR" yardstick
— it does not scale in hardware, which is the entire motivation for the
VBF organization.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .base import MshrEntry, MshrFile


class ConventionalMshr(MshrFile):
    """Fully-associative, single-cycle MSHR file."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._entries: Dict[int, MshrEntry] = {}

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._entries

    def search(self, line_addr: int) -> Tuple[Optional[MshrEntry], int]:
        # Probe accounting inlined (every operation costs exactly one).
        self.total_probes += 1
        self.total_accesses += 1
        return self._entries.get(line_addr), 1

    def allocate(self, line_addr: int) -> Tuple[Optional[MshrEntry], int]:
        self.total_probes += 1
        self.total_accesses += 1
        if line_addr in self._entries:
            raise ValueError(f"line {line_addr:#x} already has an MSHR entry")
        if self.occupancy >= self.capacity_limit:
            return None, 1
        entry = MshrEntry(line_addr)
        self._entries[line_addr] = entry
        self.occupancy += 1
        return entry, 1

    def deallocate(self, line_addr: int) -> int:
        self.total_probes += 1
        self.total_accesses += 1
        if line_addr not in self._entries:
            raise KeyError(f"no MSHR entry for line {line_addr:#x}")
        del self._entries[line_addr]
        self.occupancy -= 1
        return 1

    def capture_state(self, ctx) -> dict:
        state = self._capture_base()
        state["v"] = 1
        state["entries"] = [
            (addr, ctx.ref_entry(entry)) for addr, entry in self._entries.items()
        ]
        return state

    def restore_state(self, state: dict, ctx) -> None:
        from ..common.versioning import check_state_version

        check_state_version(state, 1, "ConventionalMshr")
        self._restore_base(state)
        self._entries = {
            addr: ctx.get_entry(ref) for addr, ref in state["entries"]
        }
