"""End-to-end tests for machine assembly and the run methodology."""

import pytest

from repro.common.units import MIB
from repro.engine import SimulationError
from repro.mshr.vbf_mshr import VbfMshr
from repro.system.config import config_2d, config_3d_fast, config_quad_mc
from repro.system.machine import Machine, run_workload

FAST_MIX = ["gzip", "namd", "mesa", "astar"]  # light, quick to simulate


def _small(config):
    """Shrink structures so tests run in milliseconds."""
    return config.derive(l2_size=1 * MIB, l2_assoc=16, dram_capacity=64 * MIB)


def test_run_produces_per_core_results():
    result = run_workload(
        _small(config_3d_fast()), FAST_MIX,
        warmup_instructions=1000, measure_instructions=3000,
    )
    assert len(result.cores) == 4
    for core, name in zip(result.cores, FAST_MIX):
        assert core.benchmark == name
        assert core.ipc > 0
        assert core.instructions >= 3000
        assert core.l2_mpki >= 0
    assert 0 < result.hmipc <= 4
    assert result.total_cycles > 0


def test_a_non_power_of_two_dram_geometry_runs_checked():
    """3 MCs, 12 ranks, 6 banks per rank and a 30-entry MRQ: no count is
    a power of two, and the run completes under every checker with
    traffic on every controller."""
    config = _small(config_quad_mc()).derive(
        name="3MC-12R-6B", num_mcs=3, total_ranks=12, banks_per_rank=6,
        mrq_capacity=30,
    )
    machine = Machine(config, ["S.all", "mcf", "gzip", "astar"], checkers="all")
    result = machine.run(warmup_instructions=500, measure_instructions=3000)
    assert all(core.ipc > 0 for core in result.cores)
    assert len(machine.memory.controllers) == 3
    assert len(machine.l2_mshr_files) == 3
    for controller in machine.memory.controllers:
        assert [len(rank) for rank in controller.banks] == [6] * 4
        assert controller.mrq.capacity == 10
        assert controller.stats.get("issued") > 0
    assert machine.checker_set["dram-timing"].accesses_checked > 0
    assert machine.checker_set["mshr"].operations_checked > 0


def test_hmipc_is_harmonic_mean():
    result = run_workload(
        _small(config_3d_fast()), FAST_MIX,
        warmup_instructions=500, measure_instructions=2000,
    )
    expected = 4 / sum(1 / c.ipc for c in result.cores)
    assert result.hmipc == pytest.approx(expected)


def test_benchmark_count_must_match_cores():
    with pytest.raises(ValueError):
        Machine(config_2d(), ["S.all"] * 3)


def test_single_core_machine():
    config = _small(config_2d()).derive(num_cores=1)
    result = run_workload(
        config, ["gzip"], warmup_instructions=500, measure_instructions=2000,
    )
    assert len(result.cores) == 1


def test_seed_changes_results_deterministically():
    kwargs = dict(warmup_instructions=500, measure_instructions=2000)
    a = run_workload(_small(config_3d_fast()), FAST_MIX, seed=1, **kwargs)
    b = run_workload(_small(config_3d_fast()), FAST_MIX, seed=1, **kwargs)
    c = run_workload(_small(config_3d_fast()), FAST_MIX, seed=2, **kwargs)
    assert a.hmipc == b.hmipc  # fully deterministic
    assert a.hmipc != c.hmipc  # seed matters


def test_mshr_organization_is_wired():
    config = _small(config_quad_mc()).derive(
        l2_mshr_organization="vbf", l2_mshr_per_bank=32
    )
    machine = Machine(config, FAST_MIX)
    assert len(machine.l2_mshr_files) == 4  # banked per MC
    assert all(isinstance(f, VbfMshr) for f in machine.l2_mshr_files)
    assert all(f.capacity == 32 for f in machine.l2_mshr_files)


def test_dynamic_tuner_attached_and_running():
    config = _small(config_quad_mc()).derive(
        l2_mshr_per_bank=64, l2_mshr_dynamic=True
    )
    machine = Machine(config, FAST_MIX)
    assert machine.tuner is not None
    machine.run(warmup_instructions=500, measure_instructions=2000)
    assert machine.tuner.trainings >= 1


def test_max_cycles_guard_raises():
    machine = Machine(_small(config_2d()), ["S.all"] * 4)
    with pytest.raises(SimulationError):
        machine.run(
            warmup_instructions=10**9, measure_instructions=1000,
            max_cycles=10_000,
        )


def test_workload_name_recorded():
    result = run_workload(
        _small(config_3d_fast()), FAST_MIX,
        warmup_instructions=500, measure_instructions=1000,
        workload_name="demo",
    )
    assert result.workload == "demo"
    assert result.config_name == "3D-fast"


def test_line_interleave_machine_builds_shared_bus():
    config = _small(config_quad_mc()).derive(l2_interleave="line")
    machine = Machine(config, FAST_MIX)
    assert machine.l2.request_bus is not None
    machine.run(warmup_instructions=200, measure_instructions=500)


def _one_address(pulled):
    """Endless single-address trace that counts the items it hands out."""
    from repro.cpu.trace import TraceItem

    while True:
        pulled[0] += 1
        yield TraceItem(3, 0x1000, False, 0x400)


def test_swapped_trace_drives_dispatch():
    """The documented bring-your-own-trace idiom: assigning ``core.trace``
    must change what the core executes, not only what the attribute
    reads back."""
    mix = ["S.all", "gzip", "mcf", "qsort"]  # sorted: slot i is request i
    placeholder = Machine(config_2d(), mix).run(1_000, 4_000)
    machine = Machine(config_2d(), mix)
    machine.cores[0].trace = _one_address([0])
    swapped = machine.run(1_000, 4_000)
    assert placeholder.cores[0].l2_mpki > 50
    assert swapped.cores[0].l2_mpki < 1
    assert swapped.cores[0].ipc > 2 * placeholder.cores[0].ipc


def test_swapped_trace_feeds_skip_ahead_and_dispatch_from_one_source():
    """Under sampling a core alternates ``skip_ahead`` and detailed
    dispatch; every instruction it counts, skipped or dispatched, must
    come out of the swapped-in source."""
    from repro.cpu.trace import TRACE_BATCH_SIZE
    from repro.sampling.plan import SamplingPlan

    pulled = [0]
    machine = Machine(config_2d(), ["S.all", "gzip", "mcf", "qsort"])
    core = machine.cores[0]
    core.trace = _one_address(pulled)
    machine.run(2_000, 8_000, sampling=SamplingPlan())
    cursor = core.trace.cursor()
    consumed = (cursor.batches_advanced - 1) * TRACE_BATCH_SIZE + cursor.index
    assert consumed > 2_000
    assert core.icount == consumed * 4  # gap 3 + the op
    assert pulled[0] == cursor.batches_advanced * TRACE_BATCH_SIZE


@pytest.mark.parametrize(
    "first, second",
    [(False, False), (False, True), (True, False), (True, True)],
    ids=["full-then-full", "full-then-sampled", "sampled-then-full",
         "sampled-then-sampled"],
)
def test_a_finished_machine_refuses_a_second_run(first, second):
    """A machine runs once: a second run in either mode is refused by
    name, and refusing it simulates nothing."""
    from repro.common.errors import SnapshotError
    from repro.sampling.plan import SamplingPlan

    # Four intervals of 100 skipped + 50 warm-up + 200 measured.
    plan = SamplingPlan(detailed=200, warmup=100, detail_warmup=50,
                        min_intervals=4)
    machine = Machine(_small(config_2d()), FAST_MIX)
    machine.run(500, 1_000, sampling=plan if first else None)
    fired, now = machine.engine.events_fired, machine.engine.now
    with pytest.raises(SnapshotError, match="already completed"):
        machine.run(500, 1_000, sampling=plan if second else None)
    assert (machine.engine.events_fired, machine.engine.now) == (fired, now)


def test_measure_quota_must_be_positive():
    machine = Machine(_small(config_2d()), FAST_MIX)
    with pytest.raises(ValueError, match="measure_instructions"):
        machine.run(500, 0)
    assert machine.engine.events_fired == 0


def test_full_detail_load_latency_covers_the_measured_window(monkeypatch):
    """``avg_load_latency`` averages the loads completed inside each
    core's measured window; the warm-up's cold misses stay out of it."""
    from repro.system.run import RunDriver

    at_start = {}
    begin = RunDriver._begin_measure

    def begin_recording(driver):
        begin(driver)
        for core in driver.machine.cores:
            at_start[core.core_id] = (
                core.stats.get("loads_completed"),
                core.stats.get("load_latency_sum"),
            )

    monkeypatch.setattr(RunDriver, "_begin_measure", begin_recording)
    machine = Machine(_small(config_2d()), FAST_MIX, seed=42)
    reported = {c.benchmark: c.avg_load_latency for c in machine.run(1_000, 4_000).cores}
    for slot, core in enumerate(machine.cores):
        loads, latency = at_start[slot]
        # Frozen at the core's quota: the window's end.
        end_loads = core.stats.value("loads_completed")
        end_latency = core.stats.value("load_latency_sum")
        window = (end_latency - latency) / (end_loads - loads)
        assert reported[machine._benchmarks[slot]] == window
    gzip = machine._benchmarks.index("gzip")
    stats = machine.cores[gzip].stats
    whole_run = stats.value("load_latency_sum") / stats.value("loads_completed")
    assert reported["gzip"] < 0.75 * whole_run
