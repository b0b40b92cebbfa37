"""Unit tests for result persistence: the cell journal round-trip."""

import pytest

from repro.experiments.persistence import CellJournal
from repro.experiments.runner import CellFailure, run_matrix
from repro.system.config import config_3d_fast
from repro.system.scale import ExperimentScale
from repro.workloads.mixes import MIXES

TINY = ExperimentScale("tiny", 300, 1000)


@pytest.fixture(scope="module")
def table():
    from repro.common.units import MIB

    config = config_3d_fast().derive(
        name="small", l2_size=1 * MIB, l2_assoc=16, dram_capacity=64 * MIB
    )
    return run_matrix([config], [MIXES["M3"]], TINY, workers=1)


def test_roundtrip_preserves_everything(tmp_path, table):
    path = tmp_path / "results.journal.jsonl"
    original = table.result("small", "M3")
    with CellJournal.open(path, {"run": "roundtrip"}) as journal:
        journal.record_result("small", "M3", original)
    loaded = CellJournal.read(path)
    assert loaded.signature == {"run": "roundtrip"}
    assert list(loaded.completed) == [("small", "M3")]
    restored = loaded.completed[("small", "M3")]
    assert restored.hmipc == pytest.approx(original.hmipc)
    assert restored.total_cycles == original.total_cycles
    assert restored.dram_row_hit_rate == original.dram_row_hit_rate
    assert [c.benchmark for c in restored.cores] == [
        c.benchmark for c in original.cores
    ]
    assert restored.extra == original.extra
    assert restored == original


def test_failures_roundtrip(tmp_path, table):
    failure = CellFailure(
        config="broken",
        mix="M3",
        error_type="CellTimeout",
        message="attempt 2 exceeded the 30s wall-clock budget",
        traceback="",
        attempts=2,
        elapsed=61.5,
    )
    path = tmp_path / "results.journal.jsonl"
    with CellJournal.open(path, {"run": "failures"}) as journal:
        journal.record_result("small", "M3", table.result("small", "M3"))
        journal.record_failure(failure)
    loaded = CellJournal.read(path)
    restored = loaded.failed[("broken", "M3")]
    assert restored.error_type == "CellTimeout"
    assert restored.attempts == 2
    assert restored.elapsed == pytest.approx(61.5)
    assert restored == failure
    assert ("broken", "M3") not in loaded.completed
    assert ("small", "M3") not in loaded.failed
