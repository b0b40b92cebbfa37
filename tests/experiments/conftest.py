"""Shared helpers for the cell-key and worker-supervisor tests.

Cells run at a tiny instruction budget (300 warmup / 1000 measured) so
the supervisor tests, forked workers included, stay in CI territory.
Fault state is cleared around every test — a leaked fault spec would
poison unrelated tests in the same process.
"""

import pytest

from repro.common.units import MIB
from repro.experiments import faults
from repro.system.config import config_3d_fast
from repro.system.scale import ExperimentScale

TINY = ExperimentScale("tiny", 300, 1000)


def small_config(name, **overrides):
    """A cut-down 3D config that simulates quickly at TINY scale."""
    return config_3d_fast().derive(
        name=name,
        l2_size=1 * MIB,
        l2_assoc=16,
        dram_capacity=64 * MIB,
        **overrides,
    )


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    faults.clear()
