"""Every registered config value is reached by some catalog entry.

A name a ``SystemConfig`` field accepts must be exercised by a
:data:`repro.experiments.catalog.CATALOG` experiment; a value nothing
reaches is dead code to delete, not an option to keep.  Builds the
configs only — no simulation runs.
"""

import pytest

from repro.experiments.catalog import CATALOG
from repro.memctrl.schedulers import SCHEDULERS
from repro.mshr.factory import ORGANIZATIONS
from repro.system.config import BUS_PRESETS, STACK_MODES, TIMING_PRESETS

REGISTRIES = {
    "l2_mshr_organization": ORGANIZATIONS,
    "scheduler": SCHEDULERS,
    "dram_timing": TIMING_PRESETS,
    "memory_bus": BUS_PRESETS,
    "stack_mode": STACK_MODES,
}


def _catalog_configs():
    return [config for entry in CATALOG.values() for config in entry.configs()]


@pytest.mark.parametrize("field", sorted(REGISTRIES))
def test_every_registered_value_is_in_the_catalog(field):
    reached = {getattr(config, field) for config in _catalog_configs()}
    assert set(REGISTRIES[field]) <= reached, (
        f"{field}: no catalog entry reaches "
        f"{sorted(set(REGISTRIES[field]) - reached)}"
    )
