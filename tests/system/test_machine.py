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


def test_unbanked_mshr_is_single_file():
    config = _small(config_quad_mc()).derive(l2_mshr_banked=False)
    machine = Machine(config, FAST_MIX)
    assert len(machine.l2_mshr_files) == 1


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
    machine.run_sampled(SamplingPlan(), 2_000, 8_000)
    cursor = core.trace.cursor()
    consumed = (cursor.batches_advanced - 1) * TRACE_BATCH_SIZE + cursor.index
    assert consumed > 2_000
    assert core.icount == consumed * 4  # gap 3 + the op
    assert pulled[0] == cursor.batches_advanced * TRACE_BATCH_SIZE
