"""Unit tests for the trace-driven core model (against a fake L1)."""

import itertools
from collections import deque

import pytest

from repro.common.address import PageAllocator
from repro.cpu.core import Core
from repro.cpu.trace import TraceItem
from repro.engine import Engine


class FakeL1:
    """Completes accesses after a fixed latency; can reject N times."""

    def __init__(self, engine, latency=5, reject_first=0):
        self.engine = engine
        self.latency = latency
        self.reject_remaining = reject_first
        self.accesses = []
        self._waiters = deque()

    def access(self, addr, pc, is_write, record):
        if self.reject_remaining > 0:
            self.reject_remaining -= 1
            return False
        self.accesses.append(record)
        done = self.engine.now + self.latency
        # on_data is the core's callback, wired when the core is built.
        self.engine.schedule(self.latency, self.on_data, record, done)
        return True

    def on_mshr_free(self, callback):
        # Wake after a cycle, like a freed MSHR entry would.
        self.engine.schedule(1, callback)


def _core(engine, trace, l1=None, base_cpi=0.5, rob=96, width=4):
    l1 = l1 or FakeL1(engine)
    core = Core(
        engine, 0, iter(trace), l1, PageAllocator(),
        base_cpi=base_cpi, rob_size=rob, width=width,
    )
    return core, l1


def _uniform_trace(gap, count=10_000, stride=64, write=False):
    return (
        TraceItem(gap, i * stride, write, 0x400) for i in itertools.count()
    )


def _measure(engine, core, quota, on_end=None, **run_kwargs):
    """Run until ``core`` commits ``quota`` more instructions, ending the
    window on a commit watch as the run driver does; returns the
    window's (instructions, cycles), or None if it did not end."""
    start_icount, start_time = core.committed, engine.now
    window = []

    def ended(c):
        window.append((c.committed - start_icount, engine.now - start_time))
        if on_end is not None:
            on_end(c)
        engine.request_stop()

    core.watch_commit(start_icount + quota, ended)
    engine.run(**run_kwargs)
    return window[0] if window else None


def _ipc(window):
    instructions, cycles = window
    return instructions / cycles


def test_ipc_paced_by_base_cpi_when_memory_is_fast():
    engine = Engine()
    core, _ = _core(engine, _uniform_trace(gap=9), base_cpi=0.5)
    core.start()
    window = _measure(engine, core, 10_000)
    # Memory latency (5 cycles) is negligible at gap 9; commit pacing at
    # 0.5 CPI dominates -> IPC ~2.
    assert _ipc(window) == pytest.approx(2.0, rel=0.05)


def test_higher_base_cpi_lowers_ipc():
    results = []
    for cpi in (0.5, 1.0):
        engine = Engine()
        core, _ = _core(engine, _uniform_trace(gap=9), base_cpi=cpi)
        core.start()
        results.append(_ipc(_measure(engine, core, 5_000)))
    assert results[0] > 1.5 * results[1]


def test_slow_memory_lowers_ipc():
    results = []
    for latency in (5, 200):
        engine = Engine()
        core, _ = _core(
            engine, _uniform_trace(gap=9), l1=FakeL1(engine, latency=latency)
        )
        core.start()
        results.append(_ipc(_measure(engine, core, 5_000)))
    assert results[1] < results[0] / 2


def test_rob_bounds_outstanding_refs():
    engine = Engine()
    l1 = FakeL1(engine, latency=10_000)  # nothing ever completes in time
    core, _ = _core(engine, _uniform_trace(gap=0), l1=l1, rob=16)
    core.start()
    engine.run(until=5_000)
    # gap 0 -> every instruction is a ref; at most rob_size refs can be
    # dispatched before the oldest blocks everything.
    assert len(l1.accesses) <= 16
    assert core.stats.get("rob_stalls") >= 1


def test_stores_do_not_block_commit():
    engine = Engine()
    l1 = FakeL1(engine, latency=10_000)
    core, _ = _core(
        engine, _uniform_trace(gap=9, write=True), l1=l1, rob=32
    )
    core.start()
    _measure(engine, core, 2_000, until=10_000)
    # Stores commit from the store buffer; progress continues.
    assert core.committed >= 2_000


def test_l1_rejection_stalls_then_resumes():
    engine = Engine()
    l1 = FakeL1(engine, latency=5, reject_first=3)
    core, _ = _core(engine, _uniform_trace(gap=9), l1=l1)
    core.start()
    assert _measure(engine, core, 1_000) is not None
    assert core.stats.get("l1_mshr_stalls") == 3


def test_freeze_keeps_core_running():
    """Statistics frozen from the commit watch (the run driver's
    full-detail quota) leave the core executing."""
    engine = Engine()
    core, l1 = _core(engine, _uniform_trace(gap=9))
    core.start()
    _measure(engine, core, 1_000, on_end=lambda c: c.stats.freeze())
    frozen_at = core.committed
    engine.run(until=engine.now + 2_000)
    assert core.committed > frozen_at  # still executing
    assert core.stats.value("dispatched_refs") < core.stats.get(
        "dispatched_refs"
    )


def test_measured_counters():
    """A full-detail run freezes each core's statistics at its quota
    with the window's instruction and cycle counts, and reports exactly
    those (IPC = instructions / cycles, both integers)."""
    from repro.common.units import MIB
    from repro.system.config import config_2d
    from repro.system.machine import Machine

    config = config_2d().derive(num_cores=1, l2_size=1 * MIB, l2_assoc=16)
    machine = Machine(config, ["gzip"])
    core = machine.run(500, 1_000).cores[0]
    stats = machine.cores[0].stats
    instrs = stats.value("measured_instructions")
    cycles = stats.value("measured_cycles")
    assert stats.is_frozen
    assert instrs >= 1_000
    assert (core.instructions, core.cycles) == (instrs, cycles)
    assert type(core.instructions) is int and type(core.cycles) is int
    assert core.ipc == instrs / cycles


def test_validation():
    engine = Engine()
    with pytest.raises(ValueError):
        Core(engine, 0, iter([]), FakeL1(engine), PageAllocator(), width=0)
    with pytest.raises(ValueError):
        Core(engine, 0, iter([]), FakeL1(engine), PageAllocator(), base_cpi=0)


def test_watch_commit_fires_at_threshold():
    engine = Engine()
    core, _ = _core(engine, _uniform_trace(gap=3))
    seen = []

    def watched(c):
        seen.append((c.committed, engine.now))
        engine.request_stop()

    core.watch_commit(500, watched)
    core.start()
    engine.run()
    assert len(seen) == 1
    committed_at_fire, _ = seen[0]
    # Fires from inside the commit event that crosses the threshold —
    # at-or-just-past it (one commit batch is at most `width` wide).
    assert 500 <= committed_at_fire < 500 + core.width
    # One-shot: the core runs on past the threshold, the watch stays quiet.
    engine.run(until=engine.now + 5_000)
    assert core.committed > committed_at_fire + 1_000
    assert len(seen) == 1


def test_watch_commit_fires_immediately_when_already_past():
    engine = Engine()
    core, _ = _core(engine, _uniform_trace(gap=3))
    core.start()
    engine.run(until=5_000)
    already = core.committed
    assert already > 10
    seen = []
    core.watch_commit(10, seen.append)
    # Synchronous: no events needed.
    assert seen == [core]
    assert core.committed == already


def test_watch_commit_can_stop_the_run():
    """The warmup pattern: end a run via request_stop, no stop_when poll."""
    engine = Engine()
    core, _ = _core(engine, _uniform_trace(gap=3))
    core.watch_commit(300, lambda c: engine.request_stop())
    core.start()
    engine.run()
    assert 300 <= core.committed < 300 + core.width
