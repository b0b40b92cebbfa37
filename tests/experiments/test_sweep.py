"""Unit tests for the generic config sweep utility."""

import pytest

from repro.common.units import MIB
from repro.experiments.sweep import sweep_field
from repro.system.config import config_3d_fast
from repro.system.scale import ExperimentScale
from repro.workloads.mixes import MIXES

TINY = ExperimentScale("tiny", 300, 1000)


def _base():
    return config_3d_fast().derive(
        l2_size=1 * MIB, l2_assoc=16, dram_capacity=64 * MIB
    )


@pytest.fixture(scope="module")
def rob_sweep():
    return sweep_field(
        _base(), "rob_size", [32, 96],
        scale=TINY, mixes=[MIXES["M3"]], workers=1,
    )


def test_sweep_shape(rob_sweep):
    assert rob_sweep.experiment.name == "sweep_rob_size"
    assert rob_sweep.table.configs == ["rob_size=32", "rob_size=96"]
    assert rob_sweep.gm("rob_size=32") == pytest.approx(1.0)
    assert rob_sweep.gm("rob_size=96") > 0


def test_best_value_and_format(rob_sweep):
    assert max(rob_sweep.table.configs, key=rob_sweep.gm) in rob_sweep.shown
    text = rob_sweep.format()
    assert "Sweep of rob_size (GM speedup over 32)" in text
    assert "rob_size=96" in text and "GM speedup" in text


def test_hmipc_accessor(rob_sweep):
    assert rob_sweep.table.hmipc("rob_size=96", "M3") > 0


def test_unknown_field_rejected():
    with pytest.raises(ValueError, match="rob_size"):
        sweep_field(_base(), "turbo_mode", [1, 2], scale=TINY)


def test_duplicate_values_rejected():
    with pytest.raises(ValueError, match="distinct"):
        sweep_field(_base(), "rob_size", [96, 96], scale=TINY)


def test_empty_values_rejected():
    with pytest.raises(ValueError, match="at least one"):
        sweep_field(_base(), "rob_size", [], scale=TINY)
