"""Unit tests for means, the result table, and the matrix runner."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.common.units import MIB
from repro.experiments import runner
from repro.experiments.runner import (
    ResultTable,
    RunPolicy,
    geometric_mean,
    harmonic_mean,
    run_matrix,
)
from repro.system.config import config_3d_fast
from repro.system.scale import ExperimentScale
from repro.workloads.mixes import MIXES, WorkloadMix


def test_geometric_mean():
    assert geometric_mean([2, 8]) == pytest.approx(4.0)
    assert geometric_mean([5]) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])


def test_harmonic_mean():
    assert harmonic_mean([1, 1]) == pytest.approx(1.0)
    assert harmonic_mean([2, 6]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        harmonic_mean([2, -1])


TINY = ExperimentScale("tiny", 300, 1000)


def _small(config, name):
    return config.derive(
        name=name, l2_size=1 * MIB, l2_assoc=16, dram_capacity=64 * MIB
    )


@pytest.fixture(scope="module")
def table():
    configs = [
        _small(config_3d_fast(), "base"),
        _small(config_3d_fast().derive(memory_bus="tsv8"), "narrow"),
    ]
    mixes = [MIXES["M1"], MIXES["M3"]]
    return run_matrix(configs, mixes, TINY, workers=1)


def test_matrix_shape(table):
    assert table.configs == ["base", "narrow"]
    assert table.mixes == ["M1", "M3"]
    assert len(table.cells) == 4


def test_cells_have_results(table):
    result = table.result("base", "M1")
    assert result.hmipc > 0
    assert result.config_name == "base"
    assert result.workload == "M1"


def test_speedup_self_is_one(table):
    assert table.speedup("base", "M1", "base") == pytest.approx(1.0)


def test_gm_speedup_filters_by_group(table):
    gm_all = table.gm_speedup("narrow", "base")
    gm_m = table.gm_speedup("narrow", "base", groups=("M",))
    assert gm_all == pytest.approx(gm_m)  # all our mixes are group M


def test_duplicate_config_names_rejected():
    config = _small(config_3d_fast(), "dup")
    with pytest.raises(ValueError):
        run_matrix([config, config], [MIXES["M1"]], TINY, workers=1)


def test_duplicate_mix_names_rejected():
    """Cells are keyed by (config, mix) name in the table, journal, and
    result cache — duplicated mix names must fail fast, not silently
    overwrite sibling cells."""
    config = _small(config_3d_fast(), "base")
    clone = WorkloadMix(
        "M1", "M", ("applu", "h264", "astar", "vortex"), 1.0
    )
    with pytest.raises(ValueError, match="duplicate mix names"):
        run_matrix([config], [MIXES["M1"], clone], TINY, workers=1)


@pytest.mark.parametrize("via", ["argument", "REPRO_CHECK"])
def test_unknown_checker_is_refused_before_any_cell(via, tmp_path, monkeypatch):
    """A bad checker spec fails the call up front, as a bad sampling spec
    does — it does not fail every cell with the same ValueError."""
    def simulate(task):
        raise AssertionError(f"cell {task.scenario()} ran")

    monkeypatch.setattr(runner, "run_cell", simulate)
    checkers = "no-such-checker"
    if via == "REPRO_CHECK":
        monkeypatch.setenv("REPRO_CHECK", checkers)
        checkers = None
    journal = tmp_path / "matrix.jsonl"
    with pytest.raises(ValueError, match="unknown checker 'no-such-checker'"):
        run_matrix(
            [_small(config_3d_fast(), "base")], [MIXES["M3"]], TINY,
            workers=1, checkers=checkers,
            policy=RunPolicy(journal_path=str(journal)),
        )
    assert not journal.exists()


def _assert_loads_no_process_machinery(code: str, *args: str) -> None:
    """Run ``code`` in a fresh interpreter; fail if it left
    multiprocessing or the service package in ``sys.modules``."""
    code += (
        "\nloaded = {'multiprocessing', 'repro.service'} & set(sys.modules)\n"
        "sys.exit(f'imported eagerly: {sorted(loaded)}' if loaded else 0)"
    )
    src = pathlib.Path(repro.__file__).parents[1]
    subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
        timeout=60,
    )


def test_importing_experiments_loads_no_process_machinery():
    """Supervision loads with the first matrix that needs processes, so
    serial users never pay for multiprocessing or the service package."""
    _assert_loads_no_process_machinery("import sys, repro.experiments")


def test_serial_sweep_loads_no_process_machinery(tmp_path):
    """A serial matrix that journals and checkpoints — the header, the
    cell keys, every snapshot's fingerprint — still loads neither."""
    _assert_loads_no_process_machinery(
        "import os, sys\n"
        "from repro.experiments import RunPolicy, run_matrix\n"
        "from repro.system.config import config_2d\n"
        "from repro.system.scale import ExperimentScale\n"
        "from repro.workloads.mixes import MIXES\n"
        "policy = RunPolicy(journal_path=os.path.join(sys.argv[1], 'j.jsonl'),\n"
        "                   snapshot_every=500)\n"
        "table = run_matrix([config_2d()], [MIXES['M1']],\n"
        "                   ExperimentScale('tiny', 300, 1000), workers=1,\n"
        "                   policy=policy)\n"
        "assert table.ok('2D', 'M1'), table.failures",
        str(tmp_path),
    )
    assert (tmp_path / "j.jsonl").exists()


def test_parallel_workers_match_serial():
    configs = [_small(config_3d_fast(), "base")]
    mixes = [MIXES["M3"]]
    serial = run_matrix(configs, mixes, TINY, workers=1)
    parallel = run_matrix(configs, mixes, TINY, workers=2)
    assert serial.hmipc("base", "M3") == pytest.approx(
        parallel.hmipc("base", "M3")
    )
