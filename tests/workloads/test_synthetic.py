"""Unit tests for the synthetic trace generators."""

import itertools

import pytest

from repro.workloads import synthetic as syn


def _take(trace, n):
    return list(itertools.islice(trace, n))


def test_stream_copy_pattern():
    items = _take(syn.stream_kernel(0, array_bytes=1024, reads_per_element=1,
                                    writes_per_element=1, element_size=8), 8)
    # Alternating read/write, lockstep over two arrays.
    assert [i.is_write for i in items] == [False, True] * 4
    assert items[0].addr == 0 and items[1].addr == 1024
    assert items[2].addr == 8 and items[3].addr == 1024 + 8


def test_stream_arrays_are_disjoint():
    base = 1 << 20
    items = _take(syn.stream_kernel(base, array_bytes=4096,
                                    reads_per_element=2, writes_per_element=1), 300)
    reads = {i.addr for i in items if not i.is_write}
    writes = {i.addr for i in items if i.is_write}
    assert all(base <= a < base + 8192 for a in reads)
    assert all(base + 8192 <= a < base + 12288 for a in writes)


def test_stream_wraps_after_full_sweep():
    items = _take(syn.stream_kernel(0, array_bytes=64, reads_per_element=1,
                                    writes_per_element=0, element_size=8), 16)
    assert items[8].addr == items[0].addr


def test_stream_all_rotates_kernels():
    items = _take(syn.stream_all(0, array_bytes=512), 4000)
    # All four kernel regions get touched.
    regions = {i.addr // (4 * 512) for i in items}
    assert len(regions) >= 4


def test_stream_validation():
    with pytest.raises(ValueError):
        next(syn.stream_kernel(0, 1024, 0, 0))


def test_sequential_scan_strides_and_wraps():
    items = _take(syn.sequential_scan(0, footprint=256, stride=64, gap=5), 6)
    assert [i.addr for i in items] == [0, 64, 128, 192, 0, 64]
    assert all(i.gap == 5 for i in items)


def test_random_uniform_stays_in_footprint():
    items = _take(syn.random_uniform(1 << 30, footprint=4096, seed=7), 500)
    assert all((1 << 30) <= i.addr < (1 << 30) + 4096 for i in items)


def test_random_uniform_rmw_pairs():
    items = _take(syn.random_uniform(0, footprint=1 << 20, rmw=True, seed=7), 10)
    for read, write in zip(items[::2], items[1::2]):
        assert not read.is_write and write.is_write
        assert read.addr == write.addr


def test_pointer_chase_visits_lines_without_repeats_within_pass():
    items = _take(syn.pointer_chase(0, footprint=64 * 64, gap=1, seed=3), 64)
    lines = [i.addr // 64 for i in items]
    assert len(set(lines)) == len(lines)  # full-period LCG: no repeats
    assert all(0 <= l < 64 for l in lines)


def test_pointer_chase_is_not_sequential():
    items = _take(syn.pointer_chase(0, footprint=1 << 20, gap=1, seed=3), 100)
    deltas = {items[k + 1].addr - items[k].addr for k in range(99)}
    assert len(deltas) > 10  # nothing stride-predictable


def test_strided_single_stream():
    items = _take(
        syn.strided(0, footprint=1 << 20, stride=128, gap=7, num_streams=1), 4
    )
    assert [i.addr for i in items] == [0, 128, 256, 384]
    assert all(i.gap == 7 for i in items)


def test_strided_multi_stream_round_robins_disjoint_regions():
    items = _take(
        syn.strided(0, footprint=3 << 20, stride=64, gap=7, num_streams=3), 6
    )
    region = 1 << 20
    assert [i.addr for i in items] == [
        0, region, 2 * region, 64, region + 64, 2 * region + 64,
    ]


def test_strided_streams_have_distinct_pcs():
    items = _take(
        syn.strided(0, footprint=3 << 20, stride=64, gap=7, num_streams=3), 3
    )
    assert len({i.pc for i in items}) == 3  # trainable per-stream strides


def test_strided_validation():
    with pytest.raises(ValueError):
        next(syn.strided(0, 1 << 20, 64, 1, num_streams=0))


def test_hot_cold_fractions():
    items = _take(
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
    a = _take(syn.random_uniform(0, 1 << 20, seed=5), 50)
    b = _take(syn.random_uniform(0, 1 << 20, seed=5), 50)
    c = _take(syn.random_uniform(0, 1 << 20, seed=6), 50)
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# Native columnar producers: the same item stream as the row generator.
# ---------------------------------------------------------------------------

_PRODUCER_PAIRS = {
    "hot_cold": (
        syn.hot_cold, syn.hot_cold_batches,
        dict(hot_bytes=16 * 1024, cold_bytes=1 << 28, cold_fraction=0.04,
             gap=9),
    ),
    "hot_cold-one-line-regions": (
        # randrange(1) still draws one bit per call; so must the batches.
        syn.hot_cold, syn.hot_cold_batches,
        dict(hot_bytes=64, cold_bytes=64, cold_fraction=0.5, gap=3,
             write_fraction=0.5),
    ),
    "random_uniform-rmw": (
        syn.random_uniform, syn.random_uniform_batches,
        dict(footprint=1 << 26, gap=2, rmw=True),
    ),
    "random_uniform": (
        syn.random_uniform, syn.random_uniform_batches,
        dict(footprint=1 << 26, gap=26, write_fraction=0.15),
    ),
    "random_uniform-odd-footprint": (
        syn.random_uniform, syn.random_uniform_batches,
        dict(footprint=64 * 1000, gap=1, write_fraction=0.5),
    ),
}


@pytest.mark.parametrize("batch_size", [1, 7, 1024])
@pytest.mark.parametrize("seed", [1, 42, 2008])
@pytest.mark.parametrize("pair", sorted(_PRODUCER_PAIRS))
def test_native_producer_matches_row_generator(pair, seed, batch_size):
    rows_fn, batches_fn, kwargs = _PRODUCER_PAIRS[pair]
    want = 3 * batch_size
    rows = _take(rows_fn(0x4000, seed=seed, **kwargs), want)
    native = []
    for batch in batches_fn(
        0x4000, seed=seed, batch_size=batch_size, **kwargs
    ):
        assert len(batch) == batch_size
        native.extend(batch)
        if len(native) >= want:
            break
    assert native == rows


def test_hot_cold_batches_validation():
    with pytest.raises(ValueError):
        next(syn.hot_cold_batches(0, 1024, 1024, cold_fraction=-0.1))
