"""End-to-end RAS behaviour on a full machine (smoke budgets)."""

import pytest

from repro.common.errors import UncorrectableMemoryError
from repro.ras import RasConfig
from repro.system import config_2d, config_3d, run_workload
from repro.validate.diff import diff_runs, run_traced
from repro.workloads import MIXES

_WARMUP = 2_000
_MEASURE = 8_000
_BENCH = MIXES["H1"].benchmarks


def _run(config, **kwargs):
    return run_workload(
        config, _BENCH, warmup_instructions=_WARMUP,
        measure_instructions=_MEASURE, seed=42, **kwargs
    )


def test_zero_rate_ras_is_bit_identical_to_ras_off():
    """The RAS-off guarantee: hooks on the request path cost nothing.

    ecc="none" has zero storage overhead, so the page layout matches and
    the DRAM command transcript must be byte-for-byte the same.
    """
    off = run_traced(
        config_2d(), _BENCH, warmup=_WARMUP, measure=_MEASURE, label="off"
    )
    on = run_traced(
        config_2d().derive(name="2D+ras0", ras=RasConfig(ecc="none")),
        _BENCH, warmup=_WARMUP, measure=_MEASURE, label="ras0",
    )
    report = diff_runs(off, on)
    assert report.transcripts_identical, report.format()
    assert on.result.hmipc == off.result.hmipc
    extra = on.result.extra
    assert extra["ras_reads"] > 0
    assert extra["ras_corrected"] == 0
    assert extra["ras_penalty_cycles"] == 0


def _ras_calls_and_commands(config):
    """(Python calls into ``repro.ras`` during the run, DRAM commands
    issued) for the figure-4 smoke cell: counts, so they repeat exactly
    on any host."""
    import cProfile
    import os
    import types

    import repro.ras
    from repro.system.machine import Machine

    ras_dir = os.path.dirname(repro.ras.__file__) + os.sep
    machine = Machine(config, _BENCH, seed=42, workload_name="H1")
    profiler = cProfile.Profile(builtins=False)
    profiler.enable()
    try:
        machine.run(_WARMUP, _MEASURE)
    finally:
        profiler.disable()
    calls = sum(
        entry.callcount
        for entry in profiler.getstats()
        if isinstance(entry.code, types.CodeType)
        and entry.code.co_filename.startswith(ras_dir)
    )
    issued = sum(mc.stats.get("issued") for mc in machine.memory.controllers)
    return calls, issued


def test_ras_hook_cost_is_pinned_in_calls_per_dram_command():
    """The RAS seams' host cost, as a count instead of a wall-clock
    ratio: nothing in ``repro.ras`` runs on a fault-free machine, and a
    zero-rate RAS machine pays two calls per issued command (bank remap
    at enqueue, ECC check at read-out).  One more per-access hook makes
    it three and fails here."""
    calls, issued = _ras_calls_and_commands(config_2d())
    assert issued > 4_000
    assert calls == 0
    calls, issued_on = _ras_calls_and_commands(
        config_2d().derive(name="2D+ras0", ras=RasConfig(ecc="none"))
    )
    assert issued_on == issued  # cycle-identical, see the test above
    assert 0 < calls / issued <= 2.01


def test_transient_faults_get_corrected_reproducibly():
    config = config_3d().derive(
        name="3D+faults",
        ras=RasConfig(ecc="secded", transient_rate=2e-3, retention_rate=5e-4),
    )
    first, second = (
        run_traced(
            config, _BENCH, warmup=_WARMUP, measure=_MEASURE,
            checkers="all", label=label,
        )
        for label in ("faulty/a", "faulty/b")
    )
    # Same seed, same faults: the same DRAM commands at the same cycles.
    report = diff_runs(first, second)
    assert report.identical, report.format()
    first, second = first.result, second.result
    assert first.extra["ras_corrected"] > 0
    assert first.extra["ras_penalty_cycles"] > 0
    ras_keys = [k for k in first.extra if k.startswith("ras_")]
    assert {k: first.extra[k] for k in ras_keys} == {
        k: second.extra[k] for k in ras_keys
    }
    assert first.hmipc == second.hmipc


def test_retention_burst_escalates_refresh_under_checkers():
    # High retention rate with a tight burst threshold: the refresh
    # multiplier must step up, and the DRAM-timing shadow checker (which
    # replays every command against reference banks) must stay green
    # through the mid-run cadence change.
    config = config_3d().derive(
        name="3D+retention",
        ras=RasConfig(
            ecc="secded", retention_rate=2e-2,
            escalation_threshold=4, escalation_window=200_000,
        ),
    )
    result = _run(config, checkers="all")
    assert result.extra["ras_refresh_escalations"] > 0


def test_hard_bank_failure_retires_and_remaps_under_checkers():
    config = config_3d().derive(
        name="3D+hardfail",
        ras=RasConfig(
            ecc="secded", hard_fail_rate=8e-2, hard_fail_horizon=50,
            bank_retire_threshold=2,
        ),
    )
    result = _run(config, checkers="all")
    extra = result.extra
    assert extra["ras_uncorrected"] > 0
    assert extra["ras_banks_retired"] > 0
    assert extra["ras_remapped_requests"] > 0
    assert extra["ras_machine_checks"] > 0


def test_fatal_machine_check_policy_raises():
    config = config_3d().derive(
        name="3D+fatal",
        ras=RasConfig(
            ecc="secded", hard_fail_rate=8e-2, hard_fail_horizon=50,
            bank_retire_threshold=2, machine_check_policy="fatal",
        ),
    )
    with pytest.raises(UncorrectableMemoryError) as excinfo:
        _run(config)
    err = excinfo.value
    assert err.addr is not None
    assert err.core_id is not None
    assert err.component.startswith("core")
