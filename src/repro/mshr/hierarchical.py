"""Hierarchical MSHR file (Tuck et al., MICRO 2006) — comparison baseline.

Several small banked fully-associative files back onto one shared
"spare-capacity" file.  The paper uses this organization at the L1s and
argues it is a poor fit for the banked-L2/banked-MC floorplan (every bank
would need routing to the shared file); we implement it both to honour
that comparison and for use as an L1 MHA.

Probe accounting: bank access costs one probe; falling through to the
shared file costs a second.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..common.units import log2int
from .base import MshrEntry, MshrFile


class HierarchicalMshr(MshrFile):
    """Banked first level + shared second level."""

    def __init__(
        self,
        bank_capacity: int,
        num_banks: int,
        shared_capacity: int,
        line_size: int = 64,
    ) -> None:
        if num_banks < 1:
            raise ValueError("need at least one bank")
        super().__init__(bank_capacity * num_banks + shared_capacity)
        self._shift = log2int(line_size)
        self.num_banks = num_banks
        self.bank_capacity = bank_capacity
        self.shared_capacity = shared_capacity
        self._banks: List[Dict[int, MshrEntry]] = [dict() for _ in range(num_banks)]
        self._shared: Dict[int, MshrEntry] = {}

    def _bank_of(self, line_addr: int) -> int:
        return (line_addr >> self._shift) % self.num_banks

    def contains(self, line_addr: int) -> bool:
        bank = self._banks[self._bank_of(line_addr)]
        return line_addr in bank or line_addr in self._shared

    def search(self, line_addr: int) -> Tuple[Optional[MshrEntry], int]:
        bank = self._banks[self._bank_of(line_addr)]
        entry = bank.get(line_addr)
        if entry is not None:
            return entry, self._count(1)
        entry = self._shared.get(line_addr)
        return entry, self._count(2)

    def allocate(self, line_addr: int) -> Tuple[Optional[MshrEntry], int]:
        bank = self._banks[self._bank_of(line_addr)]
        if line_addr in bank or line_addr in self._shared:
            raise ValueError(f"line {line_addr:#x} already has an MSHR entry")
        if self.is_full:
            return None, self._count(1)
        if len(bank) < self.bank_capacity:
            entry = MshrEntry(line_addr)
            bank[line_addr] = entry
            self.occupancy += 1
            return entry, self._count(1)
        if len(self._shared) < self.shared_capacity:
            entry = MshrEntry(line_addr)
            self._shared[line_addr] = entry
            self.occupancy += 1
            return entry, self._count(2)
        # All banks' overflow space exhausted (this bank full + shared full).
        return None, self._count(2)

    def deallocate(self, line_addr: int) -> int:
        bank = self._banks[self._bank_of(line_addr)]
        if line_addr in bank:
            del bank[line_addr]
            self.occupancy -= 1
            return self._count(1)
        if line_addr in self._shared:
            del self._shared[line_addr]
            self.occupancy -= 1
            return self._count(2)
        raise KeyError(f"no MSHR entry for line {line_addr:#x}")

    def capture_state(self, ctx) -> dict:
        state = self._capture_base()
        state["v"] = 1
        state["banks"] = [
            [(addr, ctx.ref_entry(entry)) for addr, entry in bank.items()]
            for bank in self._banks
        ]
        state["shared"] = [
            (addr, ctx.ref_entry(entry)) for addr, entry in self._shared.items()
        ]
        return state

    def restore_state(self, state: dict, ctx) -> None:
        from ..common.versioning import check_state_version

        check_state_version(state, 1, "HierarchicalMshr")
        self._restore_base(state)
        banks = state["banks"]
        if len(banks) != self.num_banks:
            raise ValueError(
                f"snapshot has {len(banks)} banks, MSHR has {self.num_banks}"
            )
        self._banks = [
            {addr: ctx.get_entry(ref) for addr, ref in bank} for bank in banks
        ]
        self._shared = {addr: ctx.get_entry(ref) for addr, ref in state["shared"]}
