"""Unit tests for the synthetic trace producers."""

import itertools

import pytest

from repro.workloads import synthetic as syn
from tests.workloads import row_reference


def _take(trace, n):
    """The first ``n`` items of a row-form trace."""
    return list(itertools.islice(trace, n))


def _items(batches, n):
    """The first ``n`` items of a producer's batches."""
    return _take(itertools.chain.from_iterable(batches), n)


def test_stream_copy_pattern():
    items = _items(syn.stream_kernel(0, array_bytes=1024, reads_per_element=1,
                                     writes_per_element=1, element_size=8), 8)
    # Alternating read/write, lockstep over two arrays.
    assert [i.is_write for i in items] == [False, True] * 4
    assert items[0].addr == 0 and items[1].addr == 1024
    assert items[2].addr == 8 and items[3].addr == 1024 + 8


def test_stream_arrays_are_disjoint():
    base = 1 << 20
    items = _items(syn.stream_kernel(base, array_bytes=4096,
                                     reads_per_element=2, writes_per_element=1), 300)
    reads = {i.addr for i in items if not i.is_write}
    writes = {i.addr for i in items if i.is_write}
    assert all(base <= a < base + 8192 for a in reads)
    assert all(base + 8192 <= a < base + 12288 for a in writes)


def test_stream_wraps_after_full_sweep():
    items = _items(syn.stream_kernel(0, array_bytes=64, reads_per_element=1,
                                     writes_per_element=0, element_size=8), 16)
    assert items[8].addr == items[0].addr


def test_stream_all_rotates_kernels():
    items = _items(syn.stream_all(0, array_bytes=512), 4000)
    # All four kernel regions get touched.
    regions = {i.addr // (4 * 512) for i in items}
    assert len(regions) >= 4


def test_stream_validation():
    with pytest.raises(ValueError):
        next(syn.stream_kernel(0, 1024, 0, 0))


def test_sequential_scan_strides_and_wraps():
    items = _items(syn.sequential_scan(0, footprint=256, stride=64, gap=5), 6)
    assert [i.addr for i in items] == [0, 64, 128, 192, 0, 64]
    assert all(i.gap == 5 for i in items)


def test_random_uniform_stays_in_footprint():
    items = _items(syn.random_uniform(1 << 30, footprint=4096, seed=7), 500)
    assert all((1 << 30) <= i.addr < (1 << 30) + 4096 for i in items)


def test_random_uniform_rmw_pairs():
    items = _items(syn.random_uniform(0, footprint=1 << 20, rmw=True, seed=7), 10)
    for read, write in zip(items[::2], items[1::2]):
        assert not read.is_write and write.is_write
        assert read.addr == write.addr


def test_pointer_chase_visits_lines_without_repeats_within_pass():
    items = _items(syn.pointer_chase(0, footprint=64 * 64, gap=1, seed=3), 64)
    lines = [i.addr // 64 for i in items]
    assert len(set(lines)) == len(lines)  # full-period LCG: no repeats
    assert all(0 <= l < 64 for l in lines)


def test_pointer_chase_is_not_sequential():
    items = _items(syn.pointer_chase(0, footprint=1 << 20, gap=1, seed=3), 100)
    deltas = {items[k + 1].addr - items[k].addr for k in range(99)}
    assert len(deltas) > 10  # nothing stride-predictable


def test_strided_single_stream():
    items = _items(
        syn.strided(0, footprint=1 << 20, stride=128, gap=7, num_streams=1), 4
    )
    assert [i.addr for i in items] == [0, 128, 256, 384]
    assert all(i.gap == 7 for i in items)


def test_strided_multi_stream_round_robins_disjoint_regions():
    items = _items(
        syn.strided(0, footprint=3 << 20, stride=64, gap=7, num_streams=3), 6
    )
    region = 1 << 20
    assert [i.addr for i in items] == [
        0, region, 2 * region, 64, region + 64, 2 * region + 64,
    ]


def test_strided_streams_have_distinct_pcs():
    items = _items(
        syn.strided(0, footprint=3 << 20, stride=64, gap=7, num_streams=3), 3
    )
    assert len({i.pc for i in items}) == 3  # trainable per-stream strides


def test_strided_validation():
    with pytest.raises(ValueError):
        next(syn.strided(0, 1 << 20, 64, 1, num_streams=0))


def test_hot_cold_fractions():
    items = _items(
        syn.hot_cold(0, hot_bytes=4096, cold_bytes=1 << 20,
                     cold_fraction=0.25, seed=11),
        4000,
    )
    cold = sum(1 for i in items if i.addr >= 4096)
    assert 0.18 < cold / len(items) < 0.32


def test_hot_cold_validation():
    with pytest.raises(ValueError):
        next(syn.hot_cold(0, 4096, 4096, cold_fraction=1.5))


def test_generators_are_deterministic():
    a = _items(syn.random_uniform(0, 1 << 20, seed=5), 50)
    b = _items(syn.random_uniform(0, 1 << 20, seed=5), 50)
    c = _items(syn.random_uniform(0, 1 << 20, seed=6), 50)
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# Native columnar producers: the same item stream as the row generator.
# ---------------------------------------------------------------------------


def _whole(group):
    """Batch length of a producer that rounds to whole groups of items."""
    return lambda size: max(1, size // group) * group


#: id -> (pattern, kwargs, seeded, promised batch length or None).  A
#: ``None`` length is a producer whose batch lengths vary (stream_all's
#: rotation segments); its batches are only checked to be non-empty.
_PRODUCER_PAIRS = {
    "hot_cold": (
        "hot_cold",
        dict(hot_bytes=16 * 1024, cold_bytes=1 << 28, cold_fraction=0.04,
             gap=9),
        True, _whole(1),
    ),
    "hot_cold-one-line-regions": (
        # randrange(1) still draws one bit per call; so must the batches.
        "hot_cold",
        dict(hot_bytes=64, cold_bytes=64, cold_fraction=0.5, gap=3,
             write_fraction=0.5),
        True, _whole(1),
    ),
    "random_uniform-rmw": (
        "random_uniform", dict(footprint=1 << 26, gap=2, rmw=True),
        True, _whole(1),
    ),
    "random_uniform": (
        "random_uniform",
        dict(footprint=1 << 26, gap=26, write_fraction=0.15),
        True, _whole(1),
    ),
    "random_uniform-odd-footprint": (
        "random_uniform",
        dict(footprint=64 * 1000, gap=1, write_fraction=0.5),
        True, _whole(1),
    ),
    "stream_kernel-1r1w": (
        # 37 elements: sweeps wrap inside a batch.
        "stream_kernel",
        dict(array_bytes=8 * 37, reads_per_element=1, writes_per_element=1,
             gap=2),
        False, _whole(2),
    ),
    "stream_kernel-2r1w": (
        "stream_kernel",
        dict(array_bytes=8 * 37, reads_per_element=2, writes_per_element=1),
        False, _whole(3),
    ),
    "stream_all": (
        # Rotation segments of 10/10/15/15 items: partial batches are
        # carried over to each kernel's next turn.
        "stream_all", dict(array_bytes=8 * 5, gap=1), False, None,
    ),
    "sequential_scan-writes": (
        # A stride that does not divide the footprint, and writes drawn.
        "sequential_scan",
        dict(footprint=1000, stride=48, gap=5, write_fraction=0.3),
        True, _whole(1),
    ),
    "pointer_chase-writes": (
        # 100 lines under a 128 modulus: rejected LCG states, and writes.
        "pointer_chase",
        dict(footprint=64 * 100, gap=3, write_fraction=0.25),
        True, _whole(1),
    ),
    "strided-ragged-rounds": (
        "strided",
        dict(footprint=3 * 1000, stride=48, gap=4, write_fraction=0.3,
             num_streams=3),
        True, _whole(3),
    ),
}


#: (pair, seed, batch size); an unseeded pattern runs at one seed only.
_CASES = [
    (pair, seed, batch_size)
    for pair in sorted(_PRODUCER_PAIRS)
    for seed in ((1, 42, 2008) if _PRODUCER_PAIRS[pair][2] else (1,))
    for batch_size in (1, 2, 7, 1024)
]


@pytest.mark.parametrize("pair,seed,batch_size", _CASES)
def test_native_producer_matches_row_generator(pair, seed, batch_size):
    pattern, kwargs, seeded, length = _PRODUCER_PAIRS[pair]
    if seeded:
        kwargs = dict(kwargs, seed=seed)
    want = 3 * batch_size + 100
    rows = _take(getattr(row_reference, pattern)(0x4000, **kwargs), want)
    native = []
    for batch in getattr(syn, pattern)(0x4000, batch_size=batch_size, **kwargs):
        if length is None:
            assert len(batch) >= 1
        else:
            assert len(batch) == length(batch_size)
        native.extend(batch)
        if len(native) >= want:
            break
    assert native[:want] == rows


def test_hot_cold_batches_validation():
    with pytest.raises(ValueError):
        next(syn.hot_cold(0, 1024, 1024, cold_fraction=-0.1))
