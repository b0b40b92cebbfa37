"""MSHR conservation checker.

Audits every instrumented MSHR file against a shadow set of outstanding
line addresses:

* no duplicate allocations — a line never holds two live entries;
* no leaked entries — ``occupancy`` always equals the shadow set size,
  and a drained machine ends with both at zero;
* no false negatives — a line with a live entry is always found, both
  by :meth:`~repro.mshr.base.MshrFile.search` and by the untimed
  :meth:`~repro.mshr.base.MshrFile.contains` presence probe.  For the
  VBF organization this is the paper's core safety property (Section
  5.2): a Bloom filter may over-probe on false *hits*, but a false
  *negative* would drop a miss on the floor and deadlock the cache.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..mshr.base import MshrEntry, MshrFile
from .base import Checker


class MshrConservationChecker(Checker):
    """Conservation and membership invariants over a set of MSHR files."""

    __slots__ = ("_files", "_labels", "_shadow", "operations_checked")

    name = "mshr"

    def __init__(self) -> None:
        self._files: Dict[int, MshrFile] = {}
        self._labels: Dict[int, str] = {}
        self._shadow: Dict[int, Set[int]] = {}
        self.operations_checked = 0

    def register_file(self, index: int, file: MshrFile, label: str = "") -> None:
        self._files[index] = file
        self._labels[index] = label or f"mshr[{index}]"
        self._shadow[index] = set()

    # ------------------------------------------------------------------
    def _audit_occupancy(self, index: int, operation: str, line_addr: int) -> None:
        file = self._files[index]
        shadow = self._shadow[index]
        if file.occupancy != len(shadow):
            raise self.violation(
                f"{self._labels[index]}: occupancy {file.occupancy} != "
                f"{len(shadow)} tracked entries after {operation} of line "
                f"{line_addr:#x} (an entry leaked or was double-counted)",
                constraint="occupancy conservation",
                file=self._labels[index],
                operation=operation,
                tracked=sorted(hex(a) for a in shadow),
            )

    def on_allocate(
        self, index: int, line_addr: int, entry: Optional[MshrEntry], probes: int
    ) -> None:
        self.operations_checked += 1
        file = self._files[index]
        shadow = self._shadow[index]
        if entry is None:
            # Structural-hazard stall: the file must not secretly hold
            # the line, and bookkeeping must still balance.
            if line_addr in shadow:
                raise self.violation(
                    f"{self._labels[index]}: allocation of line {line_addr:#x} "
                    "failed although the line already has a live entry "
                    "(caller should have merged, not re-allocated)",
                    constraint="no duplicate allocations",
                    file=self._labels[index],
                )
            self._audit_occupancy(index, "failed allocate", line_addr)
            return
        if line_addr in shadow:
            raise self.violation(
                f"{self._labels[index]}: duplicate allocation for line "
                f"{line_addr:#x} — a live entry already exists",
                constraint="no duplicate allocations",
                file=self._labels[index],
            )
        if entry.line_addr != line_addr:
            raise self.violation(
                f"{self._labels[index]}: allocate({line_addr:#x}) returned an "
                f"entry for line {entry.line_addr:#x}",
                constraint="entry/line binding",
                file=self._labels[index],
            )
        shadow.add(line_addr)
        self._audit_occupancy(index, "allocate", line_addr)
        if not file.contains(line_addr):
            raise self.violation(
                f"{self._labels[index]}: contains({line_addr:#x}) is False "
                "immediately after a successful allocation — the presence "
                "filter reported a false negative",
                constraint="no false negatives",
                file=self._labels[index],
            )

    def on_deallocate(self, index: int, line_addr: int, probes: int) -> None:
        self.operations_checked += 1
        shadow = self._shadow[index]
        if line_addr not in shadow:
            raise self.violation(
                f"{self._labels[index]}: deallocated line {line_addr:#x} "
                "which has no tracked entry (double free or phantom entry)",
                constraint="no leaked entries",
                file=self._labels[index],
            )
        shadow.discard(line_addr)
        self._audit_occupancy(index, "deallocate", line_addr)

    def on_search(
        self, index: int, line_addr: int, entry: Optional[MshrEntry], probes: int
    ) -> None:
        self.operations_checked += 1
        shadow = self._shadow[index]
        if entry is not None:
            if entry.line_addr != line_addr:
                raise self.violation(
                    f"{self._labels[index]}: search({line_addr:#x}) returned "
                    f"an entry for line {entry.line_addr:#x}",
                    constraint="entry/line binding",
                    file=self._labels[index],
                )
            if line_addr not in shadow:
                raise self.violation(
                    f"{self._labels[index]}: search found line {line_addr:#x} "
                    "which was never allocated (phantom entry)",
                    constraint="occupancy conservation",
                    file=self._labels[index],
                )
        elif line_addr in shadow:
            raise self.violation(
                f"{self._labels[index]}: search missed line {line_addr:#x} "
                "although it has a live entry — a false negative would drop "
                "this miss and deadlock the cache",
                constraint="no false negatives",
                file=self._labels[index],
                tracked=sorted(hex(a) for a in shadow),
            )

    # ------------------------------------------------------------------
    def finish(self) -> None:
        for index in self._files:
            self._audit_occupancy(index, "end of run", 0)
            self._sweep(index)

    def assert_drained(self) -> None:
        self.finish()
        for index, shadow in self._shadow.items():
            if shadow:
                raise self.violation(
                    f"{self._labels[index]}: {len(shadow)} entries still "
                    "allocated after the workload drained",
                    constraint="no leaked entries",
                    file=self._labels[index],
                    tracked=sorted(hex(a) for a in shadow),
                )

    def _sweep(self, index: int) -> None:
        """Full membership sweep: every tracked line must be present."""
        file = self._files[index]
        for line_addr in self._shadow[index]:
            if not file.contains(line_addr):
                raise self.violation(
                    f"{self._labels[index]}: tracked line {line_addr:#x} is "
                    "not reported by contains() (false negative)",
                    constraint="no false negatives",
                    file=self._labels[index],
                )
