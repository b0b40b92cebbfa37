"""Behavioural tests shared by every MSHR file organization."""

import pytest

from repro.mshr.conventional import ConventionalMshr
from repro.mshr.direct_mapped import DirectMappedMshr
from repro.mshr.vbf_mshr import VbfMshr

LINE = 64

_KINDS = ["conventional", "direct", "vbf"]


def _files():
    return [
        ConventionalMshr(8),
        DirectMappedMshr(8, line_size=LINE),
        VbfMshr(8, line_size=LINE),
    ]


@pytest.fixture(params=_KINDS)
def mshr(request):
    return dict(zip(_KINDS, _files()))[request.param]


def test_allocate_then_search_finds_entry(mshr):
    entry, _ = mshr.allocate(5 * LINE)
    found, probes = mshr.search(5 * LINE)
    assert found is entry
    assert probes >= 1


def test_search_miss_returns_none(mshr):
    found, _ = mshr.search(7 * LINE)
    assert found is None


def test_occupancy_tracks_alloc_dealloc(mshr):
    assert mshr.occupancy == 0
    mshr.allocate(1 * LINE)
    mshr.allocate(2 * LINE)
    assert mshr.occupancy == 2
    mshr.deallocate(1 * LINE)
    assert mshr.occupancy == 1


def test_full_file_rejects_allocation(mshr):
    """``allocate`` refuses exactly when ``is_full``, under a tuner's
    lower limit and at full capacity: the L2 drains a stalled waiter
    into a file only while it is not full, and never re-queues it."""
    line = 0
    for limit in (3, mshr.capacity):
        mshr.set_capacity_limit(limit)
        while not mshr.is_full:
            entry, _ = mshr.allocate(line * LINE)
            assert entry is not None
            line += 1
        assert mshr.occupancy == limit
        rejected, _ = mshr.allocate(999 * LINE)
        assert rejected is None


def test_deallocate_missing_raises(mshr):
    with pytest.raises(KeyError):
        mshr.deallocate(123 * LINE)


def test_duplicate_allocate_raises(mshr):
    mshr.allocate(4 * LINE)
    with pytest.raises(ValueError):
        mshr.allocate(4 * LINE)


def test_dealloc_then_realloc_same_line(mshr):
    mshr.allocate(9 * LINE)
    mshr.deallocate(9 * LINE)
    entry, _ = mshr.allocate(9 * LINE)
    assert entry is not None
    found, _ = mshr.search(9 * LINE)
    assert found is entry


def test_capacity_limit_gates_new_allocations(mshr):
    mshr.set_capacity_limit(2)
    a, _ = mshr.allocate(1 * LINE)
    b, _ = mshr.allocate(2 * LINE)
    c, _ = mshr.allocate(3 * LINE)
    assert a is not None and b is not None
    assert c is None
    # Raising the limit lets allocation proceed again.
    mshr.set_capacity_limit(mshr.capacity)
    d, _ = mshr.allocate(3 * LINE)
    assert d is not None


def test_capacity_limit_validation(mshr):
    with pytest.raises(ValueError):
        mshr.set_capacity_limit(0)
    with pytest.raises(ValueError):
        mshr.set_capacity_limit(mshr.capacity + 1)


def test_contains_untimed(mshr):
    before = mshr.total_accesses
    assert not mshr.contains(3 * LINE)
    mshr.allocate(3 * LINE)
    probe_count_after_alloc = mshr.total_accesses
    assert mshr.contains(3 * LINE)
    # contains() never counts as a timed access.
    assert mshr.total_accesses == probe_count_after_alloc
    assert before + 1 == probe_count_after_alloc  # only the allocate


def test_entry_merging(mshr):
    """A new entry holds no waiters and is no prefetch; the caches merge
    a miss into it by appending, and the search finds it, waiters in
    arrival order."""
    from repro.common.request import AccessType, MemoryRequest

    entry, _ = mshr.allocate(6 * LINE)
    assert entry.requests == [] and entry.is_prefetch is False
    r1 = MemoryRequest(6 * LINE, AccessType.READ)
    r2 = MemoryRequest(6 * LINE + 8, AccessType.READ)
    entry.requests.append(r1)
    entry.requests.append(r2)
    found, _ = mshr.search(6 * LINE)
    assert found is entry and found.requests == [r1, r2]


def test_avg_probes_statistic(mshr):
    mshr.allocate(1 * LINE)
    mshr.search(1 * LINE)
    assert mshr.total_accesses >= 2
    assert mshr.avg_probes_per_access >= 1.0


def test_contains_tracks_live_set_under_churn(mshr):
    """``contains`` is an exact, untimed membership test.

    Drive a random allocate/deallocate sequence and, at every step,
    check membership verdicts for a handful of lines against the model
    set of live lines — and that probing never counts as a timed access.
    """
    import random

    rng = random.Random(5)
    lines = [i * LINE for i in range(32)]
    live = set()
    for _ in range(300):
        line = rng.choice(lines)
        if line in live and rng.random() < 0.6:
            mshr.deallocate(line)
            live.discard(line)
        elif line not in live:
            entry, _ = mshr.allocate(line)
            if entry is not None:
                live.add(line)
        probe = [rng.choice(lines) for _ in range(8)]
        accesses_before = mshr.total_accesses
        verdicts = [mshr.contains(x) for x in probe]
        assert mshr.total_accesses == accesses_before
        assert verdicts == [x in live for x in probe]


def test_contains_empty_and_full(mshr):
    assert not any(mshr.contains(x) for x in (0, LINE, 2 * LINE))
    allocated = []
    for i in range(mshr.capacity):
        entry, _ = mshr.allocate(i * LINE)
        if entry is None:
            break
        allocated.append(i * LINE)
    assert all(mshr.contains(x) for x in allocated)
