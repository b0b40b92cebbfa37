"""Differential regression tests: the transcript diff and its tools.

Same workload, same seed must give the same DRAM command transcript and
the same stat tables, record for record and counter for counter; the
diff localizes the first record where two runs part.
"""

import pytest

from repro.cli import main
from repro.system import scale as scale_mod
from repro.system.config import config_2d, config_3d_fast
from repro.validate import diff_runs, diff_timing_presets, run_traced
from repro.validate.diff import TracedRun
from repro.workloads.mixes import MIXES

WARMUP, MEASURE = 500, 2_000
MIX = MIXES["H1"]
TINY = scale_mod.ExperimentScale("smoke", WARMUP, MEASURE)


def _traced(config, **kwargs):
    return run_traced(
        config, list(MIX.benchmarks),
        warmup=WARMUP, measure=MEASURE, workload_name=MIX.name, **kwargs,
    )


def test_checkers_do_not_perturb_the_simulation():
    config = config_2d()
    plain = _traced(config)
    checked = _traced(config, checkers="all")
    report = diff_runs(plain, checked)
    assert report.identical, report.format()
    assert plain.commands > 0
    assert plain.transcript == checked.transcript
    assert "IDENTICAL" in report.format()


def test_diff_reports_first_divergence():
    lhs = rhs = _traced(config_2d())
    # Fabricate a divergence in the middle of the rhs transcript.
    index = rhs.commands // 2
    broken = list(rhs.transcript)
    broken[index] = broken[index]._replace(data_time=broken[index].data_time + 1)
    mutant = TracedRun(
        label="mutant", config_name=rhs.config_name, workload=rhs.workload,
        transcript=broken, stats=rhs.stats, result=rhs.result,
    )
    diverged = diff_runs(lhs, mutant)
    assert not diverged.identical
    assert diverged.first_divergence == index
    assert diverged.lhs_record == lhs.transcript[index]
    assert diverged.rhs_record == broken[index]
    text = diverged.format()
    assert f"#{index}" in text
    assert "data@" in text  # bank-state dump of the diverging command


def test_diff_reports_length_mismatch():
    lhs = rhs = _traced(config_2d())
    short = TracedRun(
        label="short", config_name=rhs.config_name, workload=rhs.workload,
        transcript=rhs.transcript[:-3], stats=rhs.stats, result=rhs.result,
    )
    report = diff_runs(lhs, short)
    assert not report.transcripts_identical
    assert report.first_divergence == len(rhs.transcript) - 3
    assert report.lhs_record is not None
    assert report.rhs_record is None


def test_timing_presets_diverge():
    config = config_2d()
    report, lhs, rhs = diff_timing_presets(
        config, list(MIX.benchmarks),
        preset_a="2d", preset_b="true-3d",
        warmup=WARMUP, measure=MEASURE, workload_name=MIX.name,
    )
    assert not report.identical
    assert report.first_divergence is not None
    # The faster preset is visible in the very report that localizes it.
    assert "DIVERGE" in report.format()


@pytest.mark.parametrize(
    "tool",
    ["timing", "resume", "sampling", "fidelity", "fidelity-failed-cell"],
)
def test_validate_tool_exits_1_on_the_wrong_verdict(
    capsys, monkeypatch, tmp_path, tool
):
    """Each tool fails when its differential does not come out the way
    the tool exists to show (fabricated, as in
    ``test_diff_reports_first_divergence``)."""
    from types import SimpleNamespace

    from repro.experiments import faults
    from repro.experiments.catalog import Experiment
    from repro.experiments.fidelity import Band
    from repro.validate import diff, tools

    run_traced = diff.run_traced

    def losing_a_command(*args, **kwargs):
        run = run_traced(*args, **kwargs)
        if kwargs.get("resume_from"):
            run.transcript.pop()
        return run

    def skewed(*args, sampling=None, **kwargs):
        # A figure-4 table whose sampled 3D-fast speedup is 25 % off.
        table = SimpleNamespace(
            failures={}, configs=["2D", "3D-fast"],
            speedup=lambda config, mix, baseline: 2.5 if sampling else 2.0,
        )
        return SimpleNamespace(table=table)

    monkeypatch.setattr(diff, "run_traced", losing_a_command)
    if tool == "sampling":
        monkeypatch.setattr(tools, "run_experiment", skewed)
    if tool.startswith("fidelity"):
        # A one-claim catalog: 3D-fast is ~2x 2D on H1, so [100, 200] is
        # out of reach; [0, 200] fails only through the failed cell.
        failed_cell = tool == "fidelity-failed-cell"
        claim = Band("gm 3D-fast", 0.0 if failed_cell else 100.0, 200.0)
        monkeypatch.setattr(tools, "CATALOG", {"fake": Experiment(
            name="fake", configs=lambda: [config_2d(), config_3d_fast()],
            groups=("H",), expect=(claim,),
        )})
        monkeypatch.chdir(tmp_path)
        if failed_cell:
            monkeypatch.setenv(faults.ENV_VAR, "raise:3D-fast:H1:-1")
    if tool != "resume":  # whose snapshot cadences need a smoke-long run
        monkeypatch.setitem(scale_mod._SCALES, "smoke", TINY)
    argv = {
        "timing": ["timing", "--preset-a", "2d", "--preset-b", "2d"],
        "resume": ["resume", "--shape", "plain"],
        "sampling": ["sampling"],
    }.get(tool, ["fidelity"])
    assert main(["validate"] + argv) == 1
    captured = capsys.readouterr()
    assert "FAIL: " in captured.err
    assert f"validate {argv[0]}: OK" not in captured.out
    if tool == "fidelity-failed-cell":  # nothing written over a failed cell
        assert "cell (3D-fast, H1) failed" in captured.err
        assert not (tmp_path / "FIDELITY.json").exists()
