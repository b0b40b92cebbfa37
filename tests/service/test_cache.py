"""Result cache: verified reads, atomic writes, quarantine semantics."""

import json

from repro.experiments import faults
from repro.experiments.faults import FaultSpec
from repro.service.cache import ResultCache

from .conftest import fabricated_result

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "1" * 62


def test_round_trip_is_exact(tmp_path):
    cache = ResultCache(tmp_path)
    stored = fabricated_result("M1", ipc=1.0 / 3.0)  # non-terminating float
    cache.put(KEY_A, stored)
    loaded = cache.get(KEY_A)
    assert loaded is not None
    assert loaded.cores[0].ipc == stored.cores[0].ipc  # bit-exact
    assert loaded.hmipc == stored.hmipc
    assert loaded.total_cycles == stored.total_cycles
    assert loaded.l2_stats == stored.l2_stats
    assert cache.stats["hits"] == 1 and cache.stats["writes"] == 1


def test_miss_on_absent_key(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(KEY_A) is None
    assert cache.stats == {
        "hits": 0, "misses": 1, "writes": 0, "corrupt_quarantined": 0
    }


def test_no_temp_files_left_behind(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(KEY_A, fabricated_result("M1"))
    leftovers = [p for p in tmp_path.rglob("*.tmp.*")]
    assert leftovers == []


def test_flipped_byte_is_quarantined_not_served(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(KEY_A, fabricated_result("M1"))
    path = cache.path_for(KEY_A)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))

    assert cache.get(KEY_A) is None
    assert not path.exists()  # moved aside, not left to re-trip
    assert cache.stats["corrupt_quarantined"] == 1
    quarantined = list(cache.quarantine_dir.glob("*.json*"))
    assert len(quarantined) == 1
    # Rewrite + read works again.
    cache.put(KEY_A, fabricated_result("M1"))
    assert cache.get(KEY_A) is not None


def test_truncated_entry_is_quarantined(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(KEY_A, fabricated_result("M1"))
    path = cache.path_for(KEY_A)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    assert cache.get(KEY_A) is None
    assert cache.stats["corrupt_quarantined"] == 1


def test_valid_entry_under_wrong_key_is_rejected(tmp_path):
    """A hand-copied entry (valid checksum, wrong filename) must miss."""
    cache = ResultCache(tmp_path)
    cache.put(KEY_A, fabricated_result("M1"))
    wrong = cache.path_for(KEY_B)
    wrong.parent.mkdir(parents=True, exist_ok=True)
    wrong.write_bytes(cache.path_for(KEY_A).read_bytes())
    assert cache.get(KEY_B) is None
    assert cache.stats["corrupt_quarantined"] == 1
    assert cache.get(KEY_A) is not None  # the original is untouched


def test_quarantine_names_never_collide(tmp_path):
    cache = ResultCache(tmp_path)
    for _ in range(3):
        cache.put(KEY_A, fabricated_result("M1"))
        path = cache.path_for(KEY_A)
        path.write_text("garbage")
        assert cache.get(KEY_A) is None
    assert len(list(cache.quarantine_dir.glob("*"))) == 3


def test_schema_confusion_is_corruption(tmp_path):
    """An entry that is valid JSON but not an entry is quarantined."""
    cache = ResultCache(tmp_path)
    path = cache.path_for(KEY_A)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"something": "else"}))
    assert cache.get(KEY_A) is None
    assert cache.stats["corrupt_quarantined"] == 1


def test_corrupt_cache_fault_fires_on_matching_write(tmp_path):
    """The chaos fault tampers the entry; the read path catches it."""
    cache = ResultCache(tmp_path)
    faults.install(FaultSpec("corrupt-cache", "base", "M1", times=1))
    cache.put(KEY_A, fabricated_result("M1"), config_name="base", mix_name="M1")
    assert cache.get(KEY_A) is None  # detected, quarantined
    assert cache.stats["corrupt_quarantined"] == 1
    # times=1: the second write of the same cell is left alone.
    cache.put(KEY_A, fabricated_result("M1"), config_name="base", mix_name="M1")
    assert cache.get(KEY_A) is not None


def test_truncate_cache_fault_scopes_by_cell(tmp_path):
    cache = ResultCache(tmp_path)
    faults.install(FaultSpec("truncate-cache", "base", "M1", times=1))
    cache.put(KEY_A, fabricated_result("M1"), config_name="base", mix_name="M1")
    cache.put(KEY_B, fabricated_result("M3"), config_name="base", mix_name="M3")
    assert cache.get(KEY_A) is None  # tampered
    assert cache.get(KEY_B) is not None  # different cell: untouched


def test_len_and_contains(tmp_path):
    cache = ResultCache(tmp_path)
    assert KEY_A not in cache and len(cache) == 0
    cache.put(KEY_A, fabricated_result("M1"))
    assert KEY_A in cache and len(cache) == 1
