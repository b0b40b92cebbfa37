"""Simulated uncorrectable errors surface as structured cell failures.

The bridge between the two resilience layers: a RAS ``"fatal"``
machine-check raises ``UncorrectableMemoryError`` inside the simulated
machine, and the experiment runner records it as a ``CellFailure`` that
journals and resumes like any harness-level crash.
"""

import json

import pytest

import repro.experiments.runner as runner_module
from repro.common.units import MIB
from repro.experiments.persistence import CellJournal, load_table, save_table
from repro.experiments.runner import RunPolicy, run_matrix
from repro.ras import RasConfig
from repro.system.config import config_3d_fast
from repro.system.scale import ExperimentScale
from repro.workloads.mixes import MIXES

TINY = ExperimentScale("tiny", 300, 1000)

#: Aggressive enough that a bank dies and its poison is consumed well
#: inside the tiny instruction budget, deterministically.
_FATAL_RAS = RasConfig(
    ecc="secded",
    hard_fail_rate=0.5,
    hard_fail_horizon=5,
    bank_retire_threshold=1000,  # no retirement rescue before the MCE
    machine_check_policy="fatal",
)


def _small(name, **overrides):
    return config_3d_fast().derive(
        name=name,
        l2_size=1 * MIB,
        l2_assoc=16,
        dram_capacity=64 * MIB,
        **overrides,
    )


@pytest.fixture()
def matrix():
    configs = [_small("healthy"), _small("dying", ras=_FATAL_RAS)]
    return configs, [MIXES["H1"]]


def test_fatal_mce_recorded_as_structured_cell_failure(matrix):
    configs, mixes = matrix
    table = run_matrix(configs, mixes, TINY, workers=1)
    # The healthy config completed; the dying one degraded to a record.
    assert table.ok("healthy", "H1")
    assert not table.ok("dying", "H1")
    failure = table.failure("dying", "H1")
    assert failure.error_type == "UncorrectableMemoryError"
    assert "uncorrectable" in failure.message
    assert failure.attempts == 1
    assert "UncorrectableMemoryError" in failure.traceback


def test_mce_failure_survives_journal_and_resume(tmp_path, matrix, monkeypatch):
    configs, mixes = matrix
    journal = tmp_path / "ras.journal.jsonl"
    first = run_matrix(
        configs, mixes, TINY, workers=1,
        policy=RunPolicy(journal_path=journal),
    )
    assert first.failure("dying", "H1") is not None

    # The journal carries the failure as a structured record.
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    kinds = [r["kind"] for r in records]
    assert "failure" in kinds
    replayed = CellJournal.read(journal)
    assert ("healthy", "H1") in replayed.completed
    assert any(
        f.error_type == "UncorrectableMemoryError"
        for f in replayed.failed.values()
    )

    # Resume re-simulates only the failed cell; the fault universe is
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
    assert failure.error_type == "UncorrectableMemoryError"
    assert failure.message == first.failure("dying", "H1").message


def test_mce_failure_survives_table_persistence(tmp_path, matrix):
    configs, mixes = matrix
    table = run_matrix(configs, mixes, TINY, workers=1)
    path = tmp_path / "table.json"
    save_table(table, path)
    loaded = load_table(path)
    failure = loaded.failure("dying", "H1")
    assert failure is not None
    assert failure.error_type == "UncorrectableMemoryError"
    assert loaded.ok("healthy", "H1")
