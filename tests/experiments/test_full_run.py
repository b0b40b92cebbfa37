"""Unit tests for the full-suite runner."""

import pytest

from repro.experiments import faults, full_run
from repro.experiments.catalog import CATALOG
from repro.experiments.full_run import run_full_suite
from repro.experiments.runner import ResultTable
from repro.system.scale import ExperimentScale
from repro.workloads.mixes import MIXES

TINY = ExperimentScale("tiny", 300, 1000)


def test_only_filter_and_output_dir(tmp_path):
    reports = run_full_suite(
        scale=TINY,
        mixes=[MIXES["M3"]],
        workers=1,
        output_dir=str(tmp_path),
        only=["figure4"],
        progress=False,
    )
    assert list(reports) == ["figure4"]
    assert "Figure 4" in reports["figure4"]
    assert (tmp_path / "figure4.txt").read_text().startswith("Figure 4")


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="figure4"):
        run_full_suite(only=["figure99"], progress=False)


def test_two_experiments_in_order(tmp_path):
    reports = run_full_suite(
        scale=TINY,
        mixes=[MIXES["M3"]],
        workers=1,
        only=["table2b", "ablation_scheduler"],
        progress=False,
    )
    assert set(reports) == {"table2b", "ablation_scheduler"}
    assert "Table 2(b)" in reports["table2b"]
    assert "scheduler" in reports["ablation_scheduler"]


def test_suite_order_is_catalog_order(monkeypatch):
    class Stub:
        table = ResultTable(configs=[], mixes=[], cells={})

        def format(self):
            return "stub"

    ran = []

    def fake_run(name, *args, **kwargs):
        ran.append(name)
        return Stub()

    monkeypatch.setattr(full_run, "run_experiment", fake_run)
    reports = run_full_suite(progress=False)
    suite = [name for name, exp in CATALOG.items() if exp.in_suite]
    assert ran == list(reports) == suite
    assert len(suite) == 17 and "stack_modes" not in suite
    # --only picks from the whole catalog, still in catalog order.
    reports = run_full_suite(only=["stack_modes", "figure4"], progress=False)
    assert list(reports) == ["figure4", "stack_modes"]


def test_failed_experiment_is_recorded_and_the_suite_goes_on(monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, "raise:3D:H1:-1")
    reports = run_full_suite(
        scale=TINY,
        mixes=[MIXES["H1"]],
        workers=1,
        only=["figure4", "ablation_prefetch"],
        progress=False,
    )
    assert list(reports) == ["figure4", "ablation_prefetch"]
    assert "report incomplete" in reports["figure4"]
    assert "WARNING: 1 cell(s) failed" in reports["figure4"]
    assert "cell (3D, H1)" in reports["figure4"]
    assert reports["ablation_prefetch"].startswith("Ablation: prefetching")
    assert "WARNING" not in reports["ablation_prefetch"]
