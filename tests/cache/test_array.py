"""Unit and property tests for the set-associative cache array."""

import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.array import CacheArray
from repro.common.units import MIB


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


#: One random operation: (name, line number, dirty flag, byte offset).
_OPS = st.tuples(
    st.sampled_from(["lookup", "touch", "probe", "fill", "mark_dirty", "invalidate"]),
    st.integers(min_value=0, max_value=10_000),
    st.booleans(),
    st.integers(min_value=0, max_value=63),
)


@settings(max_examples=80, deadline=None)
@given(
    assoc=st.sampled_from([1, 2, 12, 24]),
    sets=st.sampled_from([1, 3, 4]),
    full=st.booleans(),
    ops=st.lists(_OPS, max_size=300),
)
def test_property_matches_lru_reference_model(assoc, sets, full, ops):
    """Every operation returns what a list-per-set LRU reference returns,
    and leaves each set holding the same ``(line, dirty)`` pairs in the
    same least- to most-recently-used order — from a full array, and
    from a fresh one whose sets are not built yet."""
    array = _tiny(assoc=assoc, sets=sets)
    reference = [[] for _ in range(sets)]  # per set: [line, dirty], LRU first
    for n in range(sets * assoc if full else 0):  # full: most operations hit
        array.fill(n * 64, dirty=n % 3 == 0)
        reference[n % sets].append([n * 64, n % 3 == 0])
    lines = 2 * sets * assoc  # half resident: hits and victims alike
    for op, number, dirty, offset in ops:
        line = (number % lines) * 64
        ways = reference[(line // 64) % sets]
        way = next((w for w in ways if w[0] == line), None)
        addr = line + offset
        if op == "lookup":
            assert array.lookup(addr) is (way is not None)
            if way is not None:
                ways.remove(way)
                ways.append(way)
        elif op == "touch":
            assert array.touch(addr, dirty) is (way is not None)
            if way is not None:
                ways.remove(way)
                ways.append([line, way[1] or dirty])
        elif op == "probe":
            assert array.probe(addr) is (way is not None)
        elif op == "fill":
            victim = array.fill(addr, dirty)
            if way is not None:
                assert victim is None
                ways.remove(way)
                ways.append([line, way[1] or dirty])
            else:
                expected = tuple(ways.pop(0)) if len(ways) >= assoc else None
                assert victim == expected
                ways.append([line, dirty])
        elif op == "mark_dirty":
            if way is None:
                with pytest.raises(KeyError):
                    array.mark_dirty(addr)
            else:
                array.mark_dirty(addr)
                ways.remove(way)
                ways.append([line, True])
        else:
            assert array.invalidate(addr) == (None if way is None else way[1])
            if way is not None:
                ways.remove(way)
        assert [list(map(list, (s or {}).items())) for s in array._sets] == reference
    assert array.resident_lines == sum(map(len, reference))


def test_host_memory_per_resident_line():
    """A full 1,024-set, 24-way array holds each line in at most 64 B of
    container, key objects excluded: a plain dict per set measures about
    50 B, an ``OrderedDict`` per set about 103 B (Python 3.11)."""
    sets, ways = 1024, 24
    addrs = [n * 64 for n in range(sets * ways)]  # built before tracing
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        array = _tiny(assoc=ways, sets=sets)
        for addr in addrs:
            array.fill(addr)
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert array.resident_lines == sets * ways
    # fill() stores the aligned address it computes, a new int per line.
    keys = sum(sys.getsizeof(line) for s in array._sets for line in s)
    assert (traced - keys) / (sets * ways) <= 64


def test_a_fresh_array_builds_no_set():
    """A 64 MiB, 8-way array (the L4's tag store, 131,072 sets) holds one
    list slot per set until the set's first fill: about 1 MiB, against
    about 9.1 MiB when every set's dict was built up front."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        array = CacheArray(64 * MIB, 8, 64)
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert array.num_sets == 131_072
    assert traced <= 1.5 * MIB


def test_only_a_fill_builds_a_set():
    """Every operation but ``fill`` reads a never-filled set as empty and
    leaves it unbuilt."""
    array = _tiny(assoc=2, sets=4)
    line = 1 * 64  # set 1
    assert not array.lookup(line)
    assert not array.touch(line, dirty=True)
    assert not array.probe(line)
    assert array.invalidate(line) is None
    with pytest.raises(KeyError):
        array.mark_dirty(line)
    assert array._sets == [None] * 4
    assert array.resident_lines == 0
    assert array.fill(line, dirty=True) is None
    assert array._sets == [None, {line: True}, None, None]
    assert array.resident_lines == 1
