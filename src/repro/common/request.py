"""Memory request objects that flow through the simulated hierarchy."""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable, Optional


class AccessType(enum.Enum):
    """What a request is doing, from the memory system's point of view."""

    READ = "read"
    WRITE = "write"
    WRITEBACK = "writeback"
    PREFETCH = "prefetch"

    def __init__(self, label: str) -> None:
        # Plain member attributes instead of properties: both flags are
        # read on every hot-path access.
        #: Demand accesses (loads/stores) matter for IPC; others are traffic.
        self.is_demand = label in ("read", "write")
        #: Whether the access moves data toward memory.
        self.is_write = label in ("write", "writeback")


_request_ids = itertools.count()


def capture_globals() -> dict:
    """Module-global request state for a whole-machine snapshot."""
    return {"next_request_id": _request_ids.__reduce__()[1][0]}


def restore_globals(state: dict) -> None:
    """Restore module-global request state from a snapshot."""
    global _request_ids
    _request_ids = itertools.count(state["next_request_id"])


class MemoryRequest:
    """A single cache-line-granularity memory request.

    One object is threaded through the whole hierarchy (L1 -> L2 -> MSHR ->
    MC -> DRAM) so each level can stamp timing information onto it.
    ``callback`` is invoked exactly once, with the request, when the data
    is available at the requesting level.
    """

    __slots__ = (
        "req_id",
        "addr",
        "access",
        "core_id",
        "pc",
        "created_at",
        "issued_to_dram_at",
        "completed_at",
        "callback",
        "is_write",
        "row_buffer_hit",
        "mshr_probes",
        "annotations",
    )

    def __init__(
        self,
        addr: int,
        access: AccessType,
        core_id: int = 0,
        pc: int = 0,
        created_at: int = 0,
        callback: Optional[Callable[["MemoryRequest"], Any]] = None,
    ) -> None:
        if addr < 0:
            raise ValueError(f"negative address: {addr:#x}")
        self.req_id = next(_request_ids)
        self.addr = addr
        self.access = access
        self.core_id = core_id
        self.pc = pc
        self.created_at = created_at
        self.issued_to_dram_at: Optional[int] = None
        self.completed_at: Optional[int] = None
        self.callback = callback
        self.is_write = access.is_write
        self.row_buffer_hit: Optional[bool] = None
        self.mshr_probes = 0
        self.annotations: dict = {}

    @property
    def latency(self) -> Optional[int]:
        """End-to-end latency in cycles, once completed."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.created_at

    def complete(self, now: int) -> None:
        """Stamp completion time and fire the callback (once)."""
        if self.completed_at is not None:
            raise RuntimeError(f"request {self.req_id} completed twice")
        self.completed_at = now
        if self.callback is not None:
            callback, self.callback = self.callback, None
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MemoryRequest #{self.req_id} {self.access.value} "
            f"addr={self.addr:#x} core={self.core_id}>"
        )
