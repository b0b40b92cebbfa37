"""The one durable-write helper and the writers that go through it."""

import os

import pytest

from repro.common import durable
from repro.common.durable import write_atomic


@pytest.fixture
def synced_dirs(monkeypatch):
    """Directories fsynced by ``write_atomic``, in call order."""
    calls = []
    real = durable.fsync_dir

    def recording(directory):
        calls.append(os.fspath(directory))
        real(directory)

    monkeypatch.setattr(durable, "fsync_dir", recording)
    return calls


def test_write_atomic_replaces_whole_and_leaves_no_temp(tmp_path, synced_dirs):
    target = tmp_path / "out.json"
    target.write_text("old contents, longer than the new ones")
    write_atomic(target, "new")
    assert target.read_text() == "new"
    write_atomic(str(target), b"\x00bytes")
    assert target.read_bytes() == b"\x00bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]
    assert synced_dirs == [str(tmp_path)] * 2


def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    target.write_text("old")

    def no_rename(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", no_rename)
    with pytest.raises(OSError, match="disk full"):
        write_atomic(target, "new")
    assert target.read_text() == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_results_cache_and_snapshot_writers_sync_their_directory(
    tmp_path, synced_dirs
):
    from repro.experiments.persistence import save_table
    from repro.experiments.runner import ResultTable
    from repro.service.cache import ResultCache
    from repro.snapshot.format import write_snapshot_file
    from repro.system.machine import CoreResult, MachineResult

    save_table(ResultTable(configs=[], mixes=[], cells={}), tmp_path / "table.json")
    result = MachineResult(
        config_name="c", workload="w",
        cores=[CoreResult("gzip", 1.0, 10.0, 10.0, 0.0)],
        total_cycles=10, l2_stats={}, dram_row_hit_rate=0.0, mshr_avg_probes=0.0,
    )
    entry = ResultCache(tmp_path / "cache").put("ab" * 32, result)
    write_snapshot_file(
        str(tmp_path / "snaps" / "cell.snap"), {"v": 1}, config_fingerprint="f"
    )
    assert synced_dirs == [
        str(tmp_path), str(entry.parent), str(tmp_path / "snaps")
    ]
