"""Unit tests for the next-line and IP-stride prefetchers."""

import pytest

from repro.cache.prefetch import (
    CompositePrefetcher,
    IpStridePrefetcher,
    NextLinePrefetcher,
)


# "No candidates" is any empty sequence (the prefetchers share one
# empty tuple), so the silent cases below test truth, not ``== []``.


def test_nextline_fires_only_on_misses():
    pf = NextLinePrefetcher(line_size=64)
    assert not pf.observe(0x1000, pc=1, was_miss=False)
    assert pf.observe(0x1000, pc=1, was_miss=True) == [0x1040]


def test_nextline_degree():
    pf = NextLinePrefetcher(line_size=64, degree=3)
    assert pf.observe(0x1008, pc=1, was_miss=True) == [0x1040, 0x1080, 0x10C0]


def test_nextline_validation():
    with pytest.raises(ValueError):
        NextLinePrefetcher(degree=0)


def test_stride_needs_confirmations():
    pf = IpStridePrefetcher(line_size=64, threshold=2, degree=1)
    pc = 0x400
    assert not pf.observe(0x0, pc, True)  # table fill
    assert not pf.observe(0x100, pc, True)  # stride learned, conf 0
    assert not pf.observe(0x200, pc, True)  # conf 1
    assert pf.observe(0x300, pc, True) == [0x400]  # conf 2 -> prefetch


def test_stride_prefetches_line_aligned_targets():
    pf = IpStridePrefetcher(line_size=64, threshold=1, degree=2)
    pc = 0x400
    pf.observe(0x0, pc, True)
    pf.observe(0x80, pc, True)
    candidates = pf.observe(0x100, pc, True)
    assert candidates == [0x180, 0x200]
    assert all(c % 64 == 0 for c in candidates)


def test_stride_change_resets_confidence():
    pf = IpStridePrefetcher(line_size=64, threshold=1, degree=1)
    pc = 0x400
    pf.observe(0x0, pc, True)
    pf.observe(0x100, pc, True)
    assert pf.observe(0x200, pc, True)  # trained on stride 0x100
    assert not pf.observe(0x280, pc, True)  # stride changed -> retrain


def test_stride_ignores_zero_stride():
    pf = IpStridePrefetcher(line_size=64, threshold=1)
    pc = 0x400
    pf.observe(0x100, pc, True)
    pf.observe(0x100, pc, True)
    assert not pf.observe(0x100, pc, True)


def test_stride_negative_strides_supported():
    pf = IpStridePrefetcher(line_size=64, threshold=1, degree=1)
    pc = 0x404
    pf.observe(0x1000, pc, True)
    pf.observe(0xF00, pc, True)
    candidates = pf.observe(0xE00, pc, True)
    assert candidates == [0xD00 & ~63]


def test_stride_table_is_pc_indexed():
    pf = IpStridePrefetcher(line_size=64, threshold=1, table_size=256)
    pf.observe(0x0, 0x400, True)
    pf.observe(0x100, 0x400, True)
    # A different PC does not inherit the stream.
    assert not pf.observe(0x200, 0x408, True)


def test_composite_merges_and_dedups():
    composite = CompositePrefetcher(
        [NextLinePrefetcher(64), NextLinePrefetcher(64)]
    )
    assert composite.observe(0x1000, 1, True) == [0x1040]


def test_composite_empty_is_silent():
    assert not CompositePrefetcher().observe(0x1000, 1, True)


def test_composite_hit_path_skips_miss_only_members_and_dedups():
    """On a hit only hit-trained members run; their output still de-dups."""
    stride_a = IpStridePrefetcher(line_size=64, threshold=1, degree=2)
    stride_b = IpStridePrefetcher(line_size=64, threshold=1, degree=2)
    composite = CompositePrefetcher(
        [NextLinePrefetcher(64), stride_a, stride_b]
    )
    pc = 0x400
    assert not composite.observe(0x0, pc, False)
    assert not composite.observe(0x40, pc, False)
    # Both stride members emit the same two lines; next-line stays out.
    assert composite.observe(0x80, pc, False) == [0xC0, 0x100]
    # A miss reaches all three: next-line's 0x100 merges with the strides'.
    assert composite.observe(0xC0, pc, True) == [0x100, 0x140]
