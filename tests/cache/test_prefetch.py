"""Unit and property tests for Table 1's next-line + IP-stride prefetcher."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.prefetch import STRIDE_TABLE_SIZE, Prefetcher

from .prefetch_reference import (
    CompositePrefetcher,
    IpStridePrefetcher,
    NextLinePrefetcher,
)


# "No candidates" is any empty sequence (the prefetcher shares one
# empty tuple), so the silent cases below test truth, not ``== []``.


def _train(pf, pc, addrs, was_miss=False):
    """Observe ``addrs`` in order; return the last observation's output."""
    candidates = ()
    for addr in addrs:
        candidates = pf.observe(addr, pc, was_miss)
    return candidates


def test_nextline_fires_only_on_misses():
    pf = Prefetcher(line_size=64)
    assert not pf.observe(0x1000, pc=1, was_miss=False)
    assert pf.observe(0x1008, pc=2, was_miss=True) == [0x1040]


def test_stride_needs_confirmations():
    pf = Prefetcher(line_size=64)
    pc = 0x400
    assert not pf.observe(0x0, pc, False)  # table fill
    assert not pf.observe(0x100, pc, False)  # stride learned, conf 0
    assert not pf.observe(0x200, pc, False)  # conf 1
    assert pf.observe(0x300, pc, False) == [0x400, 0x500]  # conf 2 -> prefetch


def test_stride_prefetches_line_aligned_targets():
    pf = Prefetcher(line_size=64)
    candidates = _train(pf, 0x400, (0x0, 0x90, 0x120, 0x1B0))
    assert candidates == [0x240, 0x2C0]
    assert all(c % 64 == 0 for c in candidates)


def test_stride_change_resets_confidence():
    pf = Prefetcher(line_size=64)
    pc = 0x400
    assert _train(pf, pc, (0x0, 0x100, 0x200, 0x300))  # trained on 0x100
    assert not pf.observe(0x380, pc, False)  # stride changed -> retrain
    assert not pf.observe(0x400, pc, False)  # conf 1 on the new stride
    assert pf.observe(0x480, pc, False) == [0x500, 0x580]


def test_stride_ignores_zero_stride():
    pf = Prefetcher(line_size=64)
    assert not _train(pf, 0x400, (0x100,) * 5)


def test_stride_negative_strides_supported():
    pf = Prefetcher(line_size=64)
    candidates = _train(pf, 0x404, (0x1000, 0xF00, 0xE00, 0xD00))
    assert candidates == [0xC00, 0xB00]


def test_stride_targets_below_zero_are_dropped():
    pf = Prefetcher(line_size=64)
    assert not _train(pf, 0x404, (0x180, 0x100, 0x80, 0x0))
    pf = Prefetcher(line_size=64)
    assert _train(pf, 0x404, (0x120, 0xE0, 0xA0, 0x60)) == [0x0]


def test_stride_table_is_pc_indexed():
    pf = Prefetcher(line_size=64)
    _train(pf, 0x400, (0x0, 0x100, 0x200))
    # A different PC does not inherit the stream...
    assert not pf.observe(0x300, 0x408, False)
    # ...but one that collides modulo the table size does.
    assert pf.observe(0x300, 0x400 + STRIDE_TABLE_SIZE, False) == [0x400, 0x500]


def test_composite_merges_and_dedups():
    """A miss names the next line first, then the stride targets, each
    line once: at a 72 B stride the next line is also the first stride
    target's line."""
    pf = Prefetcher(line_size=64)
    pc = 0x400
    _train(pf, pc, (0x1000, 0x1048, 0x1090))
    assert pf.observe(0x10D8, pc, True) == [0x1100, 0x1140]


def test_composite_empty_is_silent():
    """With its stride table empty the prefetcher is silent on hits."""
    pf = Prefetcher(line_size=64)
    assert not pf.observe(0x1000, 1, False)
    assert not pf.observe(0x2000, 2, False)


def test_composite_hit_path_skips_miss_only_members_and_dedups():
    """A hit trains the stride table and names only its targets (no next
    line); a miss on the same stream adds the next line first."""
    pf = Prefetcher(line_size=64)
    pc = 0x400
    assert not _train(pf, pc, (0x0, 0x40, 0x80))
    assert pf.observe(0xC0, pc, False) == [0x100, 0x140]
    assert pf.observe(0x100, pc, True) == [0x140, 0x180]


def test_a_hit_with_an_8_byte_stride_names_one_line():
    """At offset 56 with an 8 B stride, both stride targets (64 and 72)
    fall in the next line: it is named once."""
    pf = Prefetcher(line_size=64)
    pc = 0x400
    assert not _train(pf, pc, (0x1020, 0x1028, 0x1030))
    assert pf.observe(0x1038, pc, False) == [0x1040]


# ----------------------------------------------------------------------
# Against the reference three-class composite
# ----------------------------------------------------------------------

#: Strides the generated streams step by: sub-line, line, multi-line,
#: negative, and zero.
_STRIDES = (-200, -64, -24, -8, 0, 8, 24, 56, 64, 72, 200, 4096)

#: PCs, two pairs of them colliding modulo the table size.
_PCS = (0x400, 0x400 + STRIDE_TABLE_SIZE, 0x404, 0x404 + 3 * STRIDE_TABLE_SIZE, 7)

#: One access: (pc index, stride index, repeats, was_miss, restart near 0).
_STEPS = st.tuples(
    st.integers(min_value=0, max_value=len(_PCS) - 1),
    st.integers(min_value=0, max_value=len(_STRIDES) - 1),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
    st.one_of(st.none(), st.integers(min_value=0, max_value=300)),
)


def _stream(steps):
    """``(addr, pc, was_miss)`` accesses: each step walks its PC's stream
    by one stride ``repeats`` times (or restarts it near address 0)."""
    last = {}
    for pc_index, stride_index, repeats, was_miss, restart in steps:
        pc = _PCS[pc_index]
        for _ in range(repeats):
            if restart is not None:
                addr, restart = restart, None
            else:
                addr = max(0, last.get(pc, 0x100) + _STRIDES[stride_index])
            last[pc] = addr
            yield addr, pc, was_miss


def _unique(candidates):
    """``candidates`` with repeats removed, first occurrences in order."""
    seen = []
    for line in candidates:
        if line not in seen:
            seen.append(line)
    return seen


@settings(max_examples=200, deadline=None)
@given(st.lists(_STEPS, max_size=60))
def test_property_matches_the_reference_composite(steps):
    """On a miss, ``observe`` returns what the reference composite of
    next-line and IP-stride returns; on a hit, what the reference's hit
    observer (the IP-stride member alone) returns, repeats removed."""
    pf = Prefetcher(line_size=64)
    reference = CompositePrefetcher(
        [NextLinePrefetcher(64), IpStridePrefetcher(64)]
    )
    for addr, pc, was_miss in _stream(steps):
        got = list(pf.observe(addr, pc, was_miss))
        if was_miss:
            expected = list(reference.observe(addr, pc, True))
        else:
            expected = _unique(reference.hit_observer(addr, pc, False))
        assert got == expected, (hex(addr), hex(pc), was_miss)
