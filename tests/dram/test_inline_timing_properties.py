"""The miss path's inlined bank arithmetic against its reference methods.

``MemoryController._pump`` computes each queued entry's start cycle
inline, and ``Bank.access`` computes its own start cycle and refresh
epoch inline.  These properties pin both to ``Bank.earliest_start``,
``RefreshSchedule.earliest_available`` and ``RefreshSchedule.epoch``,
over random bank ready times and refresh phases, with times drawn
before a rank's first window and at each edge of a blackout.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.request import AccessType, MemoryRequest
from repro.dram import build_banks
from repro.dram.timing import ddr2_commodity
from repro.engine import Engine
from repro.interconnect.bus import Bus
from repro.memctrl.controller import MemoryController
from repro.memctrl.mapping import AddressMapping

TIMING = ddr2_commodity()
T_REFI = TIMING.refresh_interval
T_RFC = TIMING.t_rfc
RANKS, BANKS = 2, 2


def _times(phase):
    """Cycles around a rank's refresh: anywhere in its first windows,
    just before ``phase``, and at both edges of a blackout."""
    window = st.integers(min_value=0, max_value=3)
    edge = st.sampled_from([-1, 0, 1, T_RFC - 1, T_RFC, T_RFC + 1])
    return st.one_of(
        st.integers(min_value=0, max_value=phase + 3 * T_REFI),
        st.integers(min_value=0, max_value=phase),
        st.builds(lambda k, d: max(0, phase + k * T_REFI + d), window, edge),
    )


class _Capture:
    """Scheduler that records the ready set it is shown."""

    single_trivial = False

    def __init__(self):
        self.ready = None

    def select(self, ready):
        self.ready = list(ready)
        return ready[0]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pump_ready_set_and_wake_match_earliest_start(data):
    engine = Engine()
    banks = build_banks(TIMING, num_ranks=RANKS, banks_per_rank=BANKS)
    phases = [data.draw(st.integers(0, T_REFI - 1)) for _ in range(RANKS)]
    for rank, phase in zip(banks, phases):
        rank[0].refresh.phase = phase  # one schedule per rank
    for rank, phase in zip(banks, phases):
        for bank in rank:
            bank._bank_ready = data.draw(_times(phase))
    scheduler = _Capture()
    mc = MemoryController(
        0, engine, banks, Bus(width_bytes=64), scheduler,
        AddressMapping(num_mcs=1, ranks_per_mc=RANKS, banks_per_rank=BANKS),
        queue_capacity=8,
    )
    pages = data.draw(
        st.lists(st.integers(0, 4 * RANKS * BANKS - 1), min_size=1, max_size=8)
    )
    for page in pages:
        assert mc.enqueue(MemoryRequest(page * 4096, AccessType.READ))
    # The engine never runs: the clock is set by hand and the pump is
    # called directly, once.
    now = data.draw(_times(data.draw(st.sampled_from(phases))))
    engine.now = now
    starts = [entry.bank.earliest_start(now) for entry in mc.mrq.entries]
    for entry, start in zip(mc.mrq.entries, starts):
        refresh = entry.bank.refresh
        assert start == refresh.earliest_available(max(now, entry.bank._bank_ready))
    ready = [e for e, start in zip(mc.mrq.entries, starts) if start <= now]
    mc._pump()
    if ready:
        assert scheduler.ready == ready
    else:
        assert scheduler.ready is None
        assert mc._pump_at == min(starts)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bank_access_start_and_refresh_epoch_match_the_reference(data):
    phase = data.draw(st.integers(0, T_REFI - 1))
    (rank,) = build_banks(TIMING, num_ranks=1, banks_per_rank=1)
    bank = rank[0]
    bank.refresh.phase = phase
    bank._bank_ready = data.draw(_times(phase))
    start = data.draw(_times(phase))
    row = data.draw(st.integers(0, 3))
    is_write = data.draw(st.booleans())
    if data.draw(st.booleans()):
        bank.functional_touch(row, False)  # the row is open before
    begin = bank.earliest_start(start)
    epoch = bank.refresh.epoch(begin)
    assert begin == bank.refresh.earliest_available(max(start, bank._bank_ready))
    # The last epoch the bank saw: this one, the one before, or none.
    bank._epoch = data.draw(st.sampled_from([epoch, epoch - 1, -1]))
    crossing = epoch != bank._epoch
    open_before = len(bank.row_buffers)
    hit_expected = row in bank.row_buffers and not crossing

    data_time, hit = bank.access(start, row, is_write)

    assert hit == hit_expected
    assert bank._epoch == epoch
    closures = bank.stats.get("refresh_row_closures")
    assert closures == (open_before if crossing else 0)
    # A fresh bank's array and activation window are idle, so an
    # activate starts at ``begin`` too.
    if hit:
        assert data_time == begin + TIMING.t_cas
        assert bank._bank_ready == begin + TIMING.t_ccd
    else:
        assert data_time == begin + TIMING.t_rcd + TIMING.t_cas
