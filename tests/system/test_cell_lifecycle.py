"""A finished cell's machine is freed before the next cell is built.

A :class:`~repro.system.machine.Machine` is full of reference cycles and
``Engine.run`` pauses the cyclic collector while it drains, so a machine
nothing refers to any more would wait for a rare full collection —
holding every cache array it built — while the next cell builds its own.
"""

import gc

from repro.experiments.runner import run_matrix
from repro.system.config import config_l4_cache
from repro.system.machine import Machine, run_workload
from repro.system.scale import ExperimentScale
from repro.workloads.mixes import MIXES

TINY = ExperimentScale("tiny", 300, 1000)


def _machines() -> int:
    return sum(isinstance(obj, Machine) for obj in gc.get_objects())


def test_run_workload_frees_its_machine():
    config = config_l4_cache()
    gc.collect()
    before = _machines()
    for mix in ("M1", "M3"):
        run_workload(
            config, MIXES[mix].benchmarks,
            warmup_instructions=TINY.warmup_instructions,
            measure_instructions=TINY.measure_instructions,
        )
    assert _machines() == before


def test_a_serial_matrix_frees_each_cell_machine():
    gc.collect()
    before = _machines()
    table = run_matrix(
        [config_l4_cache()], [MIXES["M1"], MIXES["M3"]], TINY, workers=1
    )
    assert not table.failures and len(table.cells) == 2
    assert _machines() == before
