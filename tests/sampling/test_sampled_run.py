"""End-to-end sampled runs: annotations, determinism, wiring."""

import pytest

from repro.sampling import SamplingPlan
from repro.system.config import config_2d
from repro.system.machine import Machine, run_workload
from repro.workloads.mixes import MIXES

#: Small plan keeping these tests fast; 8 intervals at smoke quotas.
PLAN = SamplingPlan(detailed=300, warmup=600, detail_warmup=100,
                    min_intervals=4)


def _sampled(checkers=None, seed=42):
    mix = MIXES["H1"]
    return run_workload(
        config_2d(), list(mix.benchmarks),
        warmup_instructions=2000, measure_instructions=8000,
        seed=seed, workload_name=mix.name, checkers=checkers, sampling=PLAN,
    )


@pytest.fixture(scope="module")
def result():
    return _sampled()


def test_sampled_result_is_plausible(result):
    assert result.hmipc > 0
    assert all(core.ipc > 0 for core in result.cores)
    assert all(core.instructions > 0 for core in result.cores)


def test_sampled_result_annotations(result):
    extra = result.extra
    assert extra["sampled"] == 1.0
    assert extra["sample_intervals"] == PLAN.intervals_for(8000)
    assert extra["sample_detailed_per_interval"] == PLAN.detailed
    assert extra["sample_warmup_per_interval"] == PLAN.warmup
    assert extra["sample_detail_warmup"] == PLAN.detail_warmup
    assert extra["sample_rel_ci95_max"] >= extra["sample_rel_ci95_mean"] >= 0


def test_sampled_run_is_deterministic(result):
    again = _sampled()
    assert again.hmipc == result.hmipc
    assert [c.ipc for c in again.cores] == [c.ipc for c in result.cores]
    assert again.extra == result.extra


def test_sampled_run_passes_runtime_checkers():
    # The final drain leaves a conserved system; every invariant checker
    # must accept a sampled run end to end.
    checked = _sampled(checkers="all")
    assert checked.extra["sampled"] == 1.0


def test_sampled_machine_ends_drained():
    mix = MIXES["H1"]
    machine = Machine(
        config_2d(), list(mix.benchmarks), seed=42, workload_name=mix.name
    )
    machine.run(2000, 8000, sampling=PLAN)
    assert machine.outstanding_requests() == 0
    assert len(machine.sample_log) == len(machine.cores)
    for per_core in machine.sample_log:
        assert len(per_core) == PLAN.intervals_for(8000)
        assert all(instr > 0 and cycles > 0 for instr, cycles in per_core)


def test_full_detail_unaffected_by_sampling_param():
    mix = MIXES["H1"]
    full = run_workload(
        config_2d(), list(mix.benchmarks),
        warmup_instructions=2000, measure_instructions=8000,
        seed=42, workload_name=mix.name, sampling=None,
    )
    assert "sampled" not in full.extra
    assert full.hmipc > 0


def test_run_matrix_accepts_sampling_spec(tmp_path):
    from repro.experiments.runner import run_matrix
    from repro.system.scale import get_scale

    mix = MIXES["H1"]
    table = run_matrix(
        [config_2d()], [mix], get_scale("smoke"), seed=42, workers=1,
        sampling=PLAN.spec(),
    )
    cell = table.result(config_2d().name, mix.name)
    assert cell.extra["sampled"] == 1.0
    assert cell.extra["sample_intervals"] == PLAN.intervals_for(8000)


def test_run_matrix_rejects_bad_spec():
    from repro.experiments.runner import run_matrix
    from repro.system.scale import get_scale

    with pytest.raises(ValueError, match="bad sampling spec"):
        run_matrix(
            [config_2d()], [MIXES["H1"]], get_scale("smoke"), seed=42,
            workers=1, sampling="bogus:1",
        )
