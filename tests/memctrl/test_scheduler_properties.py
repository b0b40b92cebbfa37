"""Property tests for the memory schedulers."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.request import AccessType, MemoryRequest
from repro.dram import build_banks
from repro.dram.timing import ddr2_commodity
from repro.memctrl.mapping import AddressMapping
from repro.memctrl.queue import MrqEntry
from repro.memctrl.schedulers import (
    FcfsScheduler,
    FrFcfsScheduler,
    WriteDrainScheduler,
)

MAPPING = AddressMapping(num_mcs=1, ranks_per_mc=2, banks_per_rank=4)


def _banks():
    return build_banks(ddr2_commodity(), num_ranks=2, banks_per_rank=4)


def _entries(spec, banks):
    """spec: list of (page, arrival, is_write)."""
    out = []
    for page, arrival, is_write in spec:
        access = AccessType.WRITEBACK if is_write else AccessType.READ
        request = MemoryRequest(page * 4096, access)
        coords = MAPPING.decompose(page * 4096)
        bank = banks[coords.rank][coords.bank]
        out.append(MrqEntry(request, coords, arrival, bank))
    return out


entry_specs = st.lists(
    st.tuples(
        st.integers(0, 31),  # page
        st.integers(0, 1000),  # arrival
        st.booleans(),  # is_write
    ),
    min_size=1,
    max_size=16,
)


@settings(max_examples=80)
@given(spec=entry_specs)
def test_every_scheduler_picks_from_the_ready_list(spec):
    ready = _entries(spec, _banks())
    for scheduler in (FcfsScheduler(), FrFcfsScheduler(), WriteDrainScheduler()):
        chosen = scheduler.select(list(ready))
        assert chosen in ready


@settings(max_examples=80)
@given(spec=entry_specs)
def test_fcfs_is_arrival_minimal(spec):
    ready = _entries(spec, _banks())
    chosen = FcfsScheduler().select(ready)
    assert chosen.arrival == min(e.arrival for e in ready)


@settings(max_examples=60)
@given(spec=entry_specs, opened_pages=st.sets(st.integers(0, 31), max_size=8))
def test_frfcfs_prefers_hits_when_any_exist(spec, opened_pages):
    banks = _banks()
    for page in opened_pages:
        coords = MAPPING.decompose(page * 4096)
        banks[coords.rank][coords.bank].access(10_000_000, coords.row, False)
    ready = _entries(spec, banks)
    chosen = FrFcfsScheduler().select(ready)
    hits = [e for e in ready if e.bank.is_row_open(e.coords.row)]
    if hits:
        assert chosen in hits
        assert chosen.arrival == min(e.arrival for e in hits)
    else:
        assert chosen.arrival == min(e.arrival for e in ready)


@settings(max_examples=40)
@given(seed=st.integers(0, 10_000))
def test_writedrain_eventually_serves_everything(seed):
    """Under random mixed traffic the drain state machine starves nobody."""
    rng = random.Random(seed)
    scheduler = WriteDrainScheduler(high_watermark=4, low_watermark=1)
    pending = _entries(
        [(rng.randrange(32), i, rng.random() < 0.5) for i in range(24)], _banks()
    )
    served = []
    now = 0
    while pending:
        chosen = scheduler.select(pending)
        pending.remove(chosen)
        served.append(chosen)
        now += 10
    assert len(served) == 24
