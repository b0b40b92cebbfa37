"""Unit and property tests for the set-associative cache array."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.array import CacheArray


def _tiny(assoc=2, sets=4):
    return CacheArray(size_bytes=assoc * sets * 64, assoc=assoc, line_size=64)


def test_geometry():
    array = CacheArray(12 * 1024 * 1024, 24, 64)
    assert array.num_sets == 8192
    array = _tiny()
    assert array.num_sets == 4


def test_lookup_miss_then_fill_then_hit():
    array = _tiny()
    assert not array.lookup(0x100)
    assert array.fill(0x100) is None
    assert array.lookup(0x100)
    assert array.lookup(0x13F)  # same line, different offset


def test_lru_eviction_within_set():
    array = _tiny(assoc=2, sets=1)
    array.fill(0 * 64)
    array.fill(1 * 64)
    array.lookup(0 * 64)  # promote line 0
    victim = array.fill(2 * 64)
    assert victim == (1 * 64, False)


def test_capacity_invariant():
    array = _tiny(assoc=4, sets=2)
    for n in range(64):
        line = n * 64
        if not array.lookup(line):
            array.fill(line)
        assert array.resident_lines <= 8


def test_victim_is_resident_and_frees_room():
    array = _tiny(assoc=2, sets=1)
    array.fill(0 * 64)
    array.fill(1 * 64)
    victim = array.fill(2 * 64)
    assert victim is not None
    assert victim[0] in (0, 64)
    assert array.probe(2 * 64)
    assert array.resident_lines == 2


def test_dirty_victim_reported():
    array = _tiny(assoc=1, sets=1)
    array.fill(0)
    array.mark_dirty(0)
    victim = array.fill(64)
    assert victim == (0, True)


def test_mark_dirty_missing_line_raises():
    with pytest.raises(KeyError):
        _tiny().mark_dirty(0x40)


def test_probe_does_not_touch_lru():
    array = _tiny(assoc=2, sets=1)
    array.fill(0 * 64)
    array.fill(1 * 64)
    array.probe(0 * 64)  # must NOT promote
    victim = array.fill(2 * 64)
    assert victim == (0 * 64, False)


def test_fill_of_resident_line_merges_dirty():
    array = _tiny()
    array.fill(0x40, dirty=True)
    assert array.fill(0x40, dirty=False) is None
    victim_set = array.invalidate(0x40)
    assert victim_set is True  # stayed dirty


def test_invalidate():
    array = _tiny()
    assert array.invalidate(0x40) is None
    array.fill(0x40)
    assert array.invalidate(0x40) is False
    assert not array.lookup(0x40)


def test_invalidate_then_refill():
    array = _tiny(assoc=2, sets=1)
    array.fill(0)
    array.fill(64)
    array.invalidate(0)
    assert array.fill(128) is None  # room freed, no eviction needed


def test_sets_are_independent():
    array = _tiny(assoc=1, sets=4)
    for i in range(4):
        array.fill(i * 64)
    assert array.resident_lines == 4  # no evictions across sets


def test_validation():
    with pytest.raises(ValueError):
        CacheArray(1000, 3, 64)  # not divisible
    with pytest.raises(ValueError):
        CacheArray(0, 1, 64)
    with pytest.raises(ValueError):
        CacheArray(1024, 2, 63)


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=31), max_size=150))
def test_property_occupancy_never_exceeds_associativity(line_numbers):
    assoc, sets = 2, 4
    array = _tiny(assoc=assoc, sets=sets)
    resident = {}
    for n in line_numbers:
        line = n * 64
        if not array.lookup(line):
            array.fill(line)
        resident[line] = True
        assert array.resident_lines <= assoc * sets
    # Every line the array claims resident maps to <= assoc per set.
    per_set = {}
    for line in resident:
        if array.probe(line):
            per_set.setdefault(array.set_index(line), 0)
            per_set[array.set_index(line)] += 1
    assert all(count <= assoc for count in per_set.values())
