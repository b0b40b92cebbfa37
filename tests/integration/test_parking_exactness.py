"""The ROB parking rule is an event elision, not a model change.

At the end of a successful dispatch the core may decide that its
follow-up dispatch event could only find the ROB still full, and park
the next op on the spot instead of scheduling that event
(``Core._park_next``).  The claim is exactness: every ``MachineResult``
and every ``registry.dump()`` is what the polling core produces.

The polling core lives here, as the reference: a ``Core`` subclass whose
parking predicate is forced false, so each ROB stall is discovered by a
dispatch event exactly as before the rule existed.  It is installed by
patching the name ``Machine`` builds its cores from — there is no switch
for it in ``src/``.
"""

import random

import pytest

from repro.common.errors import SnapshotPreempted
from repro.cpu.core import Core
from repro.snapshot import SnapshotPlan, preemption
from repro.system import machine as machine_module
from repro.system.config import config_3d_fast
from repro.system.machine import Machine
from repro.workloads.benchmarks import BENCHMARKS, BenchmarkSpec
from repro.workloads.mixes import MIXES

from tests.strategies import random_benchmarks, random_system_config

WARMUP = 500
MEASURE = 3_000


class PollingCore(Core):
    """Reference: never parks, so every ROB stall costs its event."""

    __slots__ = ()

    def _park_next(self, window: int) -> bool:
        return False


class RecordingCore(Core):
    """Production core that also notes each elided window ``(t, until]``."""

    __slots__ = ()
    windows: list = []

    def _park_next(self, window: int) -> bool:
        parked = super()._park_next(window)
        if parked:
            self.windows.append((self.engine.now, self._next_dispatch_time))
        return parked


def _run(monkeypatch, core_cls, config, benchmarks, seed=7, **kwargs):
    monkeypatch.setattr(machine_module, "Core", core_cls)
    machine = Machine(
        config, benchmarks, seed=seed, workload_name="parking", **kwargs
    )
    result = machine.run(WARMUP, MEASURE)
    return result, machine.registry.dump(), machine


@pytest.mark.parametrize("seed", range(48))
def test_parking_core_matches_polling_core(seed, monkeypatch):
    """Randomized legal configs x benchmark lists; the seed's low bits
    walk 1/4 cores x checkers off/on."""
    num_cores = 4 if seed & 1 else 1
    checkers = "all" if seed & 4 else None
    config = random_system_config(seed, num_cores)
    benchmarks = random_benchmarks(seed, num_cores)

    def arm(core_cls):
        return _run(
            monkeypatch, core_cls, config, benchmarks, seed=seed,
            checkers=checkers,
        )

    want_result, want_dump, polling = arm(PollingCore)
    got_result, got_dump, parking = arm(Core)
    assert got_result == want_result
    assert got_dump == want_dump
    assert parking.engine.now == polling.engine.now
    assert not any(core.parked_dispatches for core in polling.cores)
    assert parking.engine.events_fired <= polling.engine.events_fired


@pytest.fixture
def ragged_benchmark():
    """A mostly-hit looping trace whose gaps vary item to item.

    Every Table-2 generator has one constant gap, so a core's ROB span
    only ever takes multiples of it and the predicate's boundary
    (span == rob_size exactly) is never approached from both sides;
    random gaps of 0-12 land on it and next to it.
    """
    from repro.cpu.trace import TraceItem, batch_iter

    rng = random.Random(0x9A9)
    items = [
        TraceItem(
            rng.randrange(13),
            rng.randrange(8 * 1024) if rng.random() < 0.9
            else rng.randrange(32 << 20),
            rng.random() < 0.3,
            0x400 + 4 * rng.randrange(6),
        )
        for _ in range(2_000)
    ]

    def rows(base):
        while True:
            for gap, addr, is_write, pc in items:
                yield TraceItem(gap, base + addr, is_write, pc)

    BENCHMARKS["_ragged"] = BenchmarkSpec(
        "_ragged", "Micro", 0.0,
        lambda base, _seed: batch_iter(rows(base), 7),
    )
    yield "_ragged"
    del BENCHMARKS["_ragged"]


@pytest.mark.parametrize("seed", range(100, 116))
def test_parking_core_matches_polling_core_on_ragged_gaps(
    seed, ragged_benchmark, monkeypatch
):
    num_cores = 4 if seed & 1 else 1
    config = random_system_config(seed, num_cores)
    benchmarks = [ragged_benchmark] * num_cores
    want_result, want_dump, _ = _run(
        monkeypatch, PollingCore, config, benchmarks, seed=seed
    )
    got_result, got_dump, _ = _run(
        monkeypatch, Core, config, benchmarks, seed=seed
    )
    assert got_result == want_result
    assert got_dump == want_dump


def test_hit_bound_mix_fires_strictly_fewer_events(monkeypatch):
    """On the ledger's hit-bound cell the rule must engage, and every
    parked op must account for exactly one saved event (the few whose
    follow-up event the polling run never reached before it ended are
    the only slack)."""
    config = config_3d_fast()
    benchmarks = list(MIXES["M1"].benchmarks)
    want_result, want_dump, polling = _run(
        monkeypatch, PollingCore, config, benchmarks
    )
    got_result, got_dump, parking = _run(
        monkeypatch, Core, config, benchmarks
    )
    assert (got_result, got_dump) == (want_result, want_dump)
    parked = sum(core.parked_dispatches for core in parking.cores)
    saved = polling.engine.events_fired - parking.engine.events_fired
    assert parked > 0
    assert saved > 0
    assert 0 <= parked - saved <= len(parking.cores)


def test_finite_trace_ends_no_earlier_when_the_rule_peeks(monkeypatch):
    """The peek at the next item must swallow exhaustion: a finite trace
    raises StopIteration from the same dispatch event it always did."""
    from repro.cpu.trace import TraceItem, batch_iter

    def rows(base):
        # A single hot line: all hits, ROB-limited, so the rule is
        # peeking when the items run out.
        return [TraceItem(9, base, False, 0x400) for _ in range(300)]

    BENCHMARKS["_finite"] = BenchmarkSpec(
        "_finite", "Micro", 0.0,
        lambda base, _seed: batch_iter(rows(base), 64),
    )
    try:
        config = config_3d_fast().derive(name="finite", num_cores=1)
        ends = []
        for core_cls in (PollingCore, Core):
            monkeypatch.setattr(machine_module, "Core", core_cls)
            machine = Machine(
                config, ["_finite"], seed=1, workload_name="finite"
            )
            with pytest.raises(StopIteration):
                machine.run(0, 10_000)
            core = machine.cores[0]
            ends.append((
                machine.engine.now, core.icount, core.committed,
                core.stats.get("rob_stalls"),
            ))
        assert len(set(ends)) == 1
        assert core.parked_dispatches > 0
    finally:
        del BENCHMARKS["_finite"]


def test_snapshot_inside_an_elided_window_resumes_exactly(
    monkeypatch, tmp_path
):
    """Checkpoint while a core sits parked with no dispatch event queued
    — between the cycle it parked and the cycle the elided event would
    have fired — and finish in a fresh machine."""
    config = config_3d_fast().derive(name="park-snap", dram_capacity=64 << 20)
    benchmarks = list(MIXES["M1"].benchmarks)
    want_result, want_dump, _ = _run(
        monkeypatch, PollingCore, config, benchmarks
    )

    RecordingCore.windows = []
    _run(monkeypatch, RecordingCore, config, benchmarks)
    # A window wide enough to stop strictly inside, from mid-run.
    wide = [(t, until) for t, until in RecordingCore.windows if until - t >= 2]
    parked_at, until = wide[len(wide) // 2]
    boundary = parked_at + 1

    monkeypatch.setattr(machine_module, "Core", Core)
    path = str(tmp_path / "parked.snap")
    first = Machine(config, benchmarks, seed=7, workload_name="parking")
    preemption.clear()
    preemption.request_preemption()
    try:
        with pytest.raises(SnapshotPreempted) as caught:
            first.run(
                WARMUP, MEASURE,
                snapshot=SnapshotPlan(
                    path=path, every=boundary, preemptible=True
                ),
            )
    finally:
        preemption.clear()
    assert caught.value.cycle == boundary
    assert parked_at < boundary <= until
    assert any(
        core._rob_blocked
        and not core._dispatch_scheduled
        and core._next_dispatch_time == until
        for core in first.cores
    )

    second = Machine(config, benchmarks, seed=7, workload_name="parking")
    second.resume(path)
    resumed = second.run(
        WARMUP, MEASURE, snapshot=SnapshotPlan(every=boundary, write=False)
    )
    assert resumed == want_result
    assert second.registry.dump() == want_dump
    assert sum(c.parked_dispatches for c in second.cores) == len(
        RecordingCore.windows
    )
