"""Memory-controller queue-conservation checker.

Tracks every request a controller *accepts* through its lifecycle —
``queued`` (in the MRQ) → ``issued`` (scheduled to DRAM) → ``retired``
(its completion callback fired) — and asserts the flow conserves
requests:

* a rejected enqueue really hit a full MRQ;
* the MRQ length always equals the number of tracked queued requests
  (nothing vanishes from or appears in the queue out of band);
* every issued request was queued, is issued exactly once, and retires
  exactly once;
* at end of run, ``accepts == queued + issued + retired`` balances.

Retire tracking chains :attr:`~repro.common.request.MemoryRequest.
callback` at accept time, so the checker observes completion without a
second instrumentation seam (``complete`` already hard-fails on double
completion; the chain adds lifecycle ordering on top).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Tuple

from ..common.request import MemoryRequest
from ..memctrl.controller import MemoryController
from ..memctrl.queue import MrqEntry
from .base import Checker

QUEUED = "queued"
ISSUED = "issued"


class QueueConservationChecker(Checker):
    """Every accepted request retires exactly once, via the MRQ."""

    __slots__ = ("_controllers", "_state", "_queued_count", "accepts", "retired")

    name = "queue"

    def __init__(self) -> None:
        self._controllers: Dict[int, MemoryController] = {}
        # (mc_id, req_id) -> QUEUED | ISSUED
        self._state: Dict[Tuple[int, int], str] = {}
        self._queued_count: Dict[int, int] = {}
        self.accepts: Dict[int, int] = {}
        self.retired: Dict[int, int] = {}

    def register_controller(self, mc_id: int, controller: MemoryController) -> None:
        self._controllers[mc_id] = controller
        self._queued_count[mc_id] = 0
        self.accepts[mc_id] = 0
        self.retired[mc_id] = 0

    # ------------------------------------------------------------------
    def _audit_mrq(self, mc_id: int, operation: str) -> None:
        controller = self._controllers[mc_id]
        if len(controller.mrq) != self._queued_count[mc_id]:
            raise self.violation(
                f"mc{mc_id}: MRQ holds {len(controller.mrq)} entries but "
                f"{self._queued_count[mc_id]} accepted requests are queued "
                f"(after {operation})",
                cycle=controller.engine.now,
                constraint="MRQ length conservation",
                mc=mc_id,
                operation=operation,
            )

    def on_enqueue(
        self, mc_id: int, request: MemoryRequest, accepted: bool
    ) -> None:
        controller = self._controllers[mc_id]
        key = (mc_id, request.req_id)
        if not accepted:
            if len(controller.mrq) < controller.mrq.capacity:
                raise self.violation(
                    f"mc{mc_id}: rejected request {request.req_id} while the "
                    f"MRQ holds {len(controller.mrq)}/{controller.mrq.capacity}"
                    " entries (spurious backpressure)",
                    cycle=controller.engine.now,
                    constraint="reject implies full",
                    mc=mc_id,
                    req_id=request.req_id,
                )
            self._audit_mrq(mc_id, f"rejected enqueue of #{request.req_id}")
            return
        if key in self._state:
            raise self.violation(
                f"mc{mc_id}: request {request.req_id} accepted again while "
                f"already {self._state[key]} (duplicate in flight)",
                cycle=controller.engine.now,
                constraint="accepted once",
                mc=mc_id,
                req_id=request.req_id,
            )
        self._state[key] = QUEUED
        self._queued_count[mc_id] += 1
        self.accepts[mc_id] += 1
        self._audit_mrq(mc_id, f"enqueue of #{request.req_id}")
        # Chain the completion callback so retirement is observed.
        request.callback = partial(
            self._chain_complete, mc_id, request.callback
        )

    def _chain_complete(
        self,
        mc_id: int,
        original: Optional[callable],
        req: MemoryRequest,
    ) -> None:
        self.on_retire(mc_id, req)
        if original is not None:
            original(req)

    def on_issue(self, mc_id: int, entry: MrqEntry) -> None:
        controller = self._controllers[mc_id]
        request = entry.request
        key = (mc_id, request.req_id)
        state = self._state.get(key)
        if state != QUEUED:
            raise self.violation(
                f"mc{mc_id}: issued request {request.req_id} which is "
                f"{state or 'not tracked'} (must be queued exactly once "
                "before issue)",
                cycle=controller.engine.now,
                constraint="issue follows accept",
                mc=mc_id,
                req_id=request.req_id,
                state=state,
            )
        self._state[key] = ISSUED
        self._queued_count[mc_id] -= 1
        self._audit_mrq(mc_id, f"issue of #{request.req_id}")

    def on_retire(self, mc_id: int, request: MemoryRequest) -> None:
        key = (mc_id, request.req_id)
        state = self._state.pop(key, None)
        if state != ISSUED:
            raise self.violation(
                f"mc{mc_id}: request {request.req_id} retired while "
                f"{state or 'not tracked'} (must issue before completing, "
                "and retire exactly once)",
                cycle=request.completed_at,
                constraint="retire follows issue",
                mc=mc_id,
                req_id=request.req_id,
                state=state,
            )
        self.retired[mc_id] += 1

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Accepted requests that have not retired yet."""
        return len(self._state)

    def finish(self) -> None:
        for mc_id in self._controllers:
            self._audit_mrq(mc_id, "end of run")
            queued = sum(
                1
                for (mc, _), state in self._state.items()
                if mc == mc_id and state == QUEUED
            )
            issued = sum(
                1
                for (mc, _), state in self._state.items()
                if mc == mc_id and state == ISSUED
            )
            if self.accepts[mc_id] != queued + issued + self.retired[mc_id]:
                raise self.violation(
                    f"mc{mc_id}: flow imbalance — {self.accepts[mc_id]} "
                    f"accepted != {queued} queued + {issued} issued + "
                    f"{self.retired[mc_id]} retired",
                    constraint="flow conservation",
                    mc=mc_id,
                    accepts=self.accepts[mc_id],
                    queued=queued,
                    issued=issued,
                    retired=self.retired[mc_id],
                )

    def assert_drained(self) -> None:
        self.finish()
        if self._state:
            sample = sorted(self._state.items())[:8]
            raise self.violation(
                f"{len(self._state)} accepted requests never retired",
                constraint="every accepted request retires",
                stuck=[
                    f"mc{mc}: #{rid} {state}" for (mc, rid), state in sample
                ],
            )
