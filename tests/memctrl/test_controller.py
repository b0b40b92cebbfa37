"""Integration-style unit tests for one memory controller."""

import random
from types import SimpleNamespace

import pytest

from repro.common.request import AccessType, MemoryRequest
from repro.dram import build_banks
from repro.dram.timing import ddr2_commodity
from repro.engine import Engine
from repro.interconnect.bus import Bus
from repro.memctrl.controller import MemoryController
from repro.memctrl.mapping import AddressMapping
from repro.memctrl.schedulers import FcfsScheduler, FrFcfsScheduler
from repro.validate import attach_checkers


def _mc(engine, queue_capacity=32, quantum=1, wire=0, width=64,
        scheduler=None, overhead=0, refresh=False):
    mapping = AddressMapping(num_mcs=1, ranks_per_mc=2, banks_per_rank=2)
    banks = build_banks(ddr2_commodity(), num_ranks=2, banks_per_rank=2)
    if not refresh:
        # Stagger all refresh far away so latency math below is exact
        # (a rank's banks share one schedule).
        for rank in banks:
            rank[0].refresh.phase = 10**9
    bus = Bus(width_bytes=width, cycles_per_beat=1, wire_latency=wire)
    return MemoryController(
        0, engine, banks, bus, scheduler or FrFcfsScheduler(), mapping,
        queue_capacity=queue_capacity, quantum=quantum,
        transaction_overhead=overhead,
    )


def _read(addr, cb=None):
    return MemoryRequest(addr, AccessType.READ, callback=cb)


def _record_issues(mc):
    """Record the cycle the controller issues each request at, keyed by
    request, by wrapping its ``_issue``."""
    issued = {}
    issue = mc._issue

    def recording_issue(entry, now):
        issued[entry.request] = now
        issue(entry, now)

    mc._issue = recording_issue
    return issued


def test_read_miss_latency_components():
    engine = Engine()
    mc = _mc(engine)
    done = []
    assert mc.enqueue(_read(0x0, done.append))
    engine.run()
    t = ddr2_commodity()
    # CWF on a 1-beat-wide bus: tRCD + tCAS + 1 beat.
    assert done[0].completed_at == t.t_rcd + t.t_cas + 1
    assert done[0].row_buffer_hit is False


def test_second_access_same_row_hits():
    engine = Engine()
    mc = _mc(engine)
    done = []
    mc.enqueue(_read(0x0, done.append))
    engine.run()
    first_done = engine.now
    mc.enqueue(_read(0x40, done.append))
    engine.run()
    t = ddr2_commodity()
    assert done[1].row_buffer_hit is True
    assert done[1].completed_at - first_done == t.t_cas + 1


def test_wire_latency_charged_both_ways():
    engine = Engine()
    mc = _mc(engine, wire=10)
    done = []
    mc.enqueue(_read(0x0, done.append))
    engine.run()
    t = ddr2_commodity()
    assert done[0].completed_at == 10 + t.t_rcd + t.t_cas + 1 + 10


def test_write_completes_after_bank_accepts_data():
    engine = Engine()
    mc = _mc(engine)
    done = []
    request = MemoryRequest(0x0, AccessType.WRITEBACK, callback=done.append)
    assert mc.enqueue(request)
    engine.run()
    t = ddr2_commodity()
    # Bus transfer (1 beat) then row activation + write.
    assert done[0].completed_at == 1 + t.t_rcd + t.t_cas


def test_mrq_backpressure_and_waiters():
    engine = Engine()
    mc = _mc(engine, queue_capacity=1, quantum=4)
    accepted = [mc.enqueue(_read(0x0)), mc.enqueue(_read(0x1000))]
    assert accepted == [True, False]
    retried = []
    mc.wait_for_space(lambda: retried.append(engine.now))
    engine.run()
    assert retried, "waiter was never released"


def test_quantum_paces_command_issue():
    engine = Engine()
    quantum = 8
    mc = _mc(engine, quantum=quantum)
    # Two requests to different banks: no bank conflict, so issue times
    # are paced purely by the MC quantum.
    mc.enqueue(_read(0x0000))
    mc.enqueue(_read(0x1000))
    engine.run()
    assert mc.stats.get("issued") == 2


def test_issue_times_respect_quantum():
    engine = Engine()
    quantum = 8
    mc = _mc(engine, quantum=quantum)
    issued = _record_issues(mc)
    reqs = [_read(0x0000), _read(0x1000)]
    for r in reqs:
        mc.enqueue(r)
    engine.run()
    assert issued[reqs[1]] - issued[reqs[0]] >= quantum


def test_bank_conflict_keeps_request_queued():
    engine = Engine()
    mc = _mc(engine)
    # Same bank, different rows: the second must wait for the bank.
    a, b = _read(0x0000), _read(0x4000 * 2)  # page 0 and page 8 -> both bank 0
    mapping = mc.mapping
    assert mapping.decompose(a.addr).bank == mapping.decompose(b.addr).bank
    issued = _record_issues(mc)
    mc.enqueue(a)
    mc.enqueue(b)
    engine.run()
    assert issued[b] > issued[a]
    assert b.completed_at > a.completed_at


def test_row_hit_rate_stat():
    engine = Engine()
    mc = _mc(engine)
    mc.enqueue(_read(0x0))
    engine.run()
    mc.enqueue(_read(0x40))
    engine.run()
    assert mc.stats.get("row_hits") == 1
    assert mc.stats.get("row_misses") == 1


def test_rejects_bad_quantum():
    with pytest.raises(ValueError):
        _mc(Engine(), quantum=0)


# ---------------------------------------------------------------------------
# Pump properties under deep bursts, refresh enabled.
# ---------------------------------------------------------------------------


def _assert_pump_wakeup(engine, mc):
    """What the pump must have left behind after any one event."""
    entries = mc.mrq.entries
    pump_at = mc._pump_at
    if not entries:
        # Queue drained: no wake-up event is left behind.
        assert pump_at is None
        return
    assert pump_at is not None, "lost wake-up"
    # The handle is queued, live, at the cycle the controller recorded.
    queued = [time for time, seq, *_ in engine._heap if seq == mc._pump_handle]
    assert queued == [pump_at] and mc._pump_handle not in engine._cancelled
    now = engine.now
    if pump_at > now and now >= mc._next_issue_time:
        # The issue gap has elapsed and the pump is still asleep, so
        # every bank is busy — and it wakes exactly when the first frees.
        assert pump_at == min(e.bank.earliest_start(now) for e in entries)


@pytest.mark.parametrize("scheduler_cls", [FrFcfsScheduler, FcfsScheduler])
@pytest.mark.parametrize("seed,quantum,overhead", [(3, 1, 0), (17, 2, 5)])
def test_pump_deep_bursts_keep_cadence_and_refresh(
    scheduler_cls, seed, quantum, overhead
):
    engine = Engine()
    mc = _mc(
        engine, queue_capacity=64, quantum=quantum, wire=2,
        scheduler=scheduler_cls(), overhead=overhead, refresh=True,
    )
    # The checkers duck-type on ``controllers`` (and a ``config`` to look
    # a timing fault up by), so a bare controller can carry them.
    checkers = attach_checkers(
        SimpleNamespace(controllers=[mc], config=None), "dram-timing,queue"
    )
    rng = random.Random(seed)
    issued = _record_issues(mc)
    done = []
    straddled = 0
    for burst in range(12):
        # Start each burst just ahead of one rank's next refresh
        # blackout so its issues straddle the window.
        refresh = mc.banks[burst % 2][0].refresh
        windows = (engine.now - refresh.phase) // refresh.t_refi + 1
        blackout = refresh.phase + windows * refresh.t_refi
        start = max(engine.now, blackout - rng.randrange(0, 60))
        engine.schedule_at(start, lambda: None)
        engine.run()
        requests = []
        for _ in range(16):
            addr = rng.randrange(0, 1 << 22) & ~0x3F
            access = (
                AccessType.WRITEBACK if rng.random() < 0.3 else AccessType.READ
            )
            request = MemoryRequest(addr, access, callback=done.append)
            assert mc.enqueue(request)
            requests.append(request)
        while engine.step():
            _assert_pump_wakeup(engine, mc)
        assert engine.now >= blackout
        straddled += any(
            issued[r] >= blackout + refresh.t_rfc for r in requests
        )
        issue_times = sorted(issued[r] for r in requests)
        for earlier, later in zip(issue_times, issue_times[1:]):
            assert later - earlier >= max(quantum, overhead)
        for request in requests:
            # The pump never issues to a rank that is refreshing.
            rank = mc.banks[mc.mapping.decompose(request.addr).rank]
            at = issued[request]
            assert rank[0].refresh.earliest_available(at) == at
    assert len(done) == 12 * 16
    assert straddled, "no burst ran across a refresh blackout"
    checkers.assert_drained()
    assert checkers["dram-timing"].accesses_checked == 12 * 16


def test_pump_sleeps_until_the_first_bank_frees():
    engine = Engine()
    mc = _mc(engine)
    # Same bank, different rows: after the first issue every queued
    # entry's bank is busy.
    first, second = _read(0x0000), _read(0x4000 * 2)
    issued = _record_issues(mc)
    mc.enqueue(first)
    mc.enqueue(second)
    assert engine.step()  # pump @0 issues `first`
    assert engine.step()  # pump @1 finds nothing ready
    assert engine.now == 1 and issued[first] == 0
    wake = mc.mrq.entries[0].bank.earliest_start(1)
    assert wake > 1
    assert mc._pump_at == wake
    engine.run()
    assert issued[second] == wake
    assert mc._pump_at is None and engine.pending == 0
