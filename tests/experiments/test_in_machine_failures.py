"""An error raised inside the simulated machine, mid-run, surfaces as a
structured cell failure.

Every ``REPRO_FAULTS`` kind fires at cell start or in the supervised
worker; here the "dying" cell's machine raises ``CheckViolation`` from a
DRAM access after it has already simulated for a while, and the
experiment runner must record it as a ``CellFailure`` that journals
and resumes like any harness-level failure.
"""

import itertools
import json

import pytest

import repro.experiments.runner as runner_module
from repro.common.errors import CheckViolation
from repro.common.units import MIB
from repro.experiments.persistence import CellJournal
from repro.experiments.runner import RunPolicy, run_matrix
from repro.system.config import config_3d_fast
from repro.system.machine import Machine
from repro.system.scale import ExperimentScale
from repro.workloads.mixes import MIXES

TINY = ExperimentScale("tiny", 300, 1000)

#: DRAM accesses the dying machine completes before its fault fires.
HEALTHY_ACCESSES = 20


def _small(name):
    return config_3d_fast().derive(
        name=name, l2_size=1 * MIB, l2_assoc=16, dram_capacity=64 * MIB
    )


def _fail_dram_after(machine, count):
    """Make the machine's ``count + 1``-th DRAM access raise."""
    calls = itertools.count(1)
    for controller in machine.memory.controllers:
        for bank in itertools.chain.from_iterable(controller.banks):

            def access(start, row, is_write, _real=bank.access):
                if next(calls) > count:
                    raise CheckViolation(
                        f"bank fault after {count} DRAM accesses", cycle=start
                    )
                return _real(start, row, is_write)

            bank.access = access


@pytest.fixture()
def matrix(monkeypatch):
    original_init = Machine.__init__

    def init(self, config, *args, **kwargs):
        original_init(self, config, *args, **kwargs)
        if config.name == "dying":
            _fail_dram_after(self, HEALTHY_ACCESSES)

    monkeypatch.setattr(Machine, "__init__", init)
    return [_small("healthy"), _small("dying")], [MIXES["H1"]]


def test_in_machine_error_recorded_as_structured_cell_failure(matrix):
    configs, mixes = matrix
    table = run_matrix(configs, mixes, TINY, workers=1)
    # The healthy config completed; the dying one degraded to a record.
    assert table.ok("healthy", "H1")
    assert not table.ok("dying", "H1")
    failure = table.failure("dying", "H1")
    assert failure.error_type == "CheckViolation"
    assert f"after {HEALTHY_ACCESSES} DRAM accesses" in failure.message
    assert failure.attempts == 1
    # Raised from inside the machine's run, not at cell start.
    assert "machine.run(" in failure.traceback


def test_in_machine_failure_survives_journal_and_resume(
    tmp_path, matrix, monkeypatch
):
    configs, mixes = matrix
    journal = tmp_path / "cells.journal.jsonl"
    first = run_matrix(
        configs, mixes, TINY, workers=1,
        policy=RunPolicy(journal_path=journal),
    )
    assert first.failure("dying", "H1") is not None

    # The journal carries the failure as a structured record.
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    assert "failure" in [r["kind"] for r in records]
    replayed = CellJournal.read(journal)
    assert ("healthy", "H1") in replayed.completed
    assert replayed.failed[("dying", "H1")].error_type == "CheckViolation"

    # Resume re-simulates only the failed cell; the fault is
    # deterministic, so it fails identically.
    calls = []
    original = runner_module.run_workload

    def counting(config, benchmarks, **kwargs):
        calls.append(config.name)
        return original(config, benchmarks, **kwargs)

    monkeypatch.setattr(runner_module, "run_workload", counting)
    second = run_matrix(
        configs, mixes, TINY, workers=1,
        policy=RunPolicy(journal_path=journal, resume=True),
    )
    assert calls == ["dying"]
    failure = second.failure("dying", "H1")
    assert failure.error_type == "CheckViolation"
    assert failure.message == first.failure("dying", "H1").message


def test_in_machine_failure_survives_table_persistence(tmp_path, matrix):
    configs, mixes = matrix
    path = tmp_path / "matrix.journal.jsonl"
    table = run_matrix(
        configs, mixes, TINY, workers=1, policy=RunPolicy(journal_path=path)
    )
    # Every field of the failure (traceback, attempts, elapsed) and of
    # the healthy cell's result reads back from the journal.
    loaded = CellJournal.read(path)
    assert list(loaded.failed) == [("dying", "H1")]
    assert loaded.failed == table.failures
    assert loaded.completed == table.cells
