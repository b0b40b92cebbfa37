"""Unit tests for the tRRD/tFAW activation governor."""

import pytest

from repro.dram import build_banks
from repro.dram.activation import ActivationWindow
from repro.dram.bank import Bank
from repro.dram.refresh import RefreshSchedule
from repro.dram.timing import ddr2_commodity, true_3d


def test_first_activation_unconstrained():
    window = ActivationWindow(ddr2_commodity())
    assert window.earliest_activate(100) == 100


def test_trrd_spaces_consecutive_activations():
    timing = ddr2_commodity()
    window = ActivationWindow(timing)
    window.record(100)
    assert window.earliest_activate(100) == 100 + timing.t_rrd
    assert window.earliest_activate(100 + timing.t_rrd + 5) == 100 + timing.t_rrd + 5


def test_tfaw_limits_four_activation_bursts():
    timing = ddr2_commodity()
    window = ActivationWindow(timing)
    start = 1000
    for i in range(4):
        t = window.earliest_activate(start)
        window.record(t)
    fifth = window.earliest_activate(start)
    first = window.recent_activations[0]
    assert fifth >= first + timing.t_faw


def test_record_rejects_time_travel():
    window = ActivationWindow(ddr2_commodity())
    window.record(500)
    with pytest.raises(ValueError):
        window.record(400)


def test_window_validation():
    with pytest.raises(ValueError):
        ActivationWindow(ddr2_commodity(), window=0)


def test_true_3d_constraints_scaled():
    assert true_3d().t_rrd < ddr2_commodity().t_rrd
    assert true_3d().t_faw < ddr2_commodity().t_faw


def test_banks_in_a_rank_share_the_governor():
    timing = ddr2_commodity()
    (rank,) = build_banks(timing, num_ranks=1, banks_per_rank=4)
    assert all(b.activations is rank[0].activations for b in rank)
    # Miss in bank 0 then immediately in bank 1, clear of any refresh
    # blackout: the second ACT is delayed by tRRD relative to the first.
    start = timing.refresh_interval // 2
    t0, _ = rank[0].access(start, row=1, is_write=False)
    t1, _ = rank[1].access(start, row=1, is_write=False)
    assert t1 - t0 >= timing.t_rrd


def test_private_governor_when_unshared():
    timing = ddr2_commodity()
    a = Bank(timing, RefreshSchedule(timing, phase=10**9))
    b = Bank(timing, RefreshSchedule(timing, phase=10**9))
    ta, _ = a.access(0, row=1, is_write=False)
    tb, _ = b.access(0, row=1, is_write=False)
    assert ta == tb  # different ranks: no coupling
