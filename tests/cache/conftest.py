"""Shared fakes for cache-layer tests."""

from collections import deque

import pytest

from repro.common.request import AccessType, MemoryRequest
from repro.engine import Engine


class FakeL2:
    """Records requests; completes them on demand (or after a delay)."""

    def __init__(self, engine, latency=None):
        self.engine = engine
        self.latency = latency
        self.requests = []

    def access(self, request):
        self.requests.append(request)
        if self.latency is not None:
            self.engine.schedule(
                self.latency, request.complete, self.engine.now + self.latency
            )

    def complete_next(self):
        request = self.requests.pop(0)
        request.complete(self.engine.now)
        return request


class FakeMemory:
    """MainMemory stand-in for L2 tests: bounded queue, manual completion."""

    class _Mapping:
        def __init__(self, num_mcs):
            self.num_mcs = num_mcs
            self.line_size = 64
            self.page_size = 4096

        def mc_index(self, addr):
            return (addr >> 12) % self.num_mcs

    def __init__(self, engine, num_mcs=1, capacity=1000, latency=None):
        self.engine = engine
        self.mapping = self._Mapping(num_mcs)
        self.capacity = capacity
        self.latency = latency
        self.queued = []
        self.waiters = deque()

    @property
    def num_mcs(self):
        return self.mapping.num_mcs

    def enqueue(self, request):
        if len(self.queued) >= self.capacity:
            return False
        self.queued.append(request)
        if self.latency is not None:
            self.engine.schedule(
                self.latency, self._auto_complete, request
            )
        return True

    def _auto_complete(self, request):
        if request in self.queued:
            self.queued.remove(request)
            request.complete(self.engine.now)
            self._wake()

    def wait_for_space(self, addr, callback):
        self.waiters.append(callback)

    def complete_next(self):
        request = self.queued.pop(0)
        request.complete(self.engine.now)
        self._wake()
        return request

    def _wake(self):
        while self.waiters and len(self.queued) < self.capacity:
            self.waiters.popleft()()


@pytest.fixture()
def engine():
    return Engine()


def make_read(addr, core_id=0, pc=0, callback=None, created_at=0):
    return MemoryRequest(
        addr, AccessType.READ, core_id=core_id, pc=pc,
        created_at=created_at, callback=callback,
    )
