"""Unit and property tests for page-interleaved address mapping."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memctrl.mapping import AddressMapping


def test_consecutive_pages_spread_across_mcs_first():
    mapping = AddressMapping(num_mcs=4, ranks_per_mc=4, banks_per_rank=8)
    mcs = [mapping.mc_index(page * 4096) for page in range(8)]
    assert mcs == [0, 1, 2, 3, 0, 1, 2, 3]


def test_then_across_banks():
    mapping = AddressMapping(num_mcs=2, ranks_per_mc=4, banks_per_rank=4)
    banks = [mapping.decompose(page * 4096).bank for page in range(0, 16, 2)]
    assert banks == [0, 1, 2, 3, 0, 1, 2, 3]


def test_column_from_page_offset():
    mapping = AddressMapping()
    coords = mapping.decompose(4096 + 5 * 64 + 3)
    assert coords.column == 5


def test_same_page_same_bank_row():
    mapping = AddressMapping(num_mcs=2)
    a = mapping.decompose(0x1000)
    b = mapping.decompose(0x1FC0)
    assert (a.mc, a.rank, a.bank, a.row) == (b.mc, b.rank, b.bank, b.row)


def test_totals():
    mapping = AddressMapping(num_mcs=4, ranks_per_mc=4, banks_per_rank=8)
    assert mapping.total_ranks == 16
    assert mapping.total_banks == 128


def test_single_mc_owns_everything():
    mapping = AddressMapping(num_mcs=1)
    assert all(mapping.mc_index(page * 4096) == 0 for page in range(32))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_mcs=0),
        dict(page_size=3000),
        dict(line_size=8192),  # line bigger than page
        dict(line_size=100),
    ],
)
def test_validation(kwargs):
    with pytest.raises(ValueError):
        AddressMapping(**kwargs)


@settings(max_examples=100)
@given(
    addr=st.integers(min_value=0, max_value=2**38 - 1),
    num_mcs=st.sampled_from([1, 2, 4]),
    ranks=st.sampled_from([2, 4, 8]),
    banks=st.sampled_from([4, 8]),
)
def test_property_decompose_compose_roundtrip(addr, num_mcs, ranks, banks):
    mapping = AddressMapping(
        num_mcs=num_mcs, ranks_per_mc=ranks, banks_per_rank=banks
    )
    coords = mapping.decompose(addr)
    assert 0 <= coords.mc < num_mcs
    assert 0 <= coords.rank < ranks
    assert 0 <= coords.bank < banks
    rebuilt = mapping.compose(coords, column_offset=addr & 63)
    assert rebuilt == addr



@pytest.mark.parametrize("num_mcs", [1, 2, 3, 4])
def test_decompose_is_the_documented_modulo_formula(num_mcs):
    """``decompose`` is the module docstring's formula, and ``compose``
    inverts it, on power-of-two and other geometries alike."""
    rng = random.Random(num_mcs)
    for ranks in (1, 2, 3, 4):
        for banks in (4, 6, 8):
            mapping = AddressMapping(
                num_mcs=num_mcs, ranks_per_mc=ranks, banks_per_rank=banks
            )
            for _ in range(200):
                addr = rng.randrange(2**38)
                page = addr >> 12
                assert tuple(mapping.decompose(addr)) == (
                    page % num_mcs,
                    page // (num_mcs * banks) % ranks,
                    page // num_mcs % banks,
                    page // (num_mcs * banks * ranks),
                    (addr & 4095) // 64,
                )
                coords = mapping.decompose(addr)
                assert mapping.compose(coords, addr & 63) == addr
                assert mapping.mc_index(addr) == coords.mc
