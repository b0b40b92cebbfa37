"""Unit and property tests for the refresh blackout schedule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.refresh import RefreshSchedule
from repro.dram.timing import ddr2_commodity


def _schedule(phase=0):
    return RefreshSchedule(ddr2_commodity(), phase=phase)


def test_time_inside_blackout_is_pushed_out():
    s = _schedule()
    assert s.earliest_available(0) == s.t_rfc
    assert s.earliest_available(s.t_rfc - 1) == s.t_rfc


def test_time_outside_blackout_unchanged():
    s = _schedule()
    assert s.earliest_available(s.t_rfc) == s.t_rfc
    assert s.earliest_available(s.t_refi - 1) == s.t_refi - 1


def test_second_window():
    s = _schedule()
    inside_second = s.t_refi + 5
    assert s.earliest_available(inside_second) == s.t_refi + s.t_rfc


def test_phase_shifts_windows():
    s = _schedule(phase=1000)
    assert s.earliest_available(0) == 0  # before the first window
    assert s.epoch(999) == -1
    assert s.blackout_cycles_until(1000) == 0
    assert s.earliest_available(1000) == 1000 + s.t_rfc
    assert s.epoch(1000) == 0


def test_epoch_increments_each_interval():
    s = _schedule()
    assert s.epoch(0) == 0
    assert s.epoch(s.t_refi - 1) == 0
    assert s.epoch(s.t_refi) == 1
    assert s.epoch(5 * s.t_refi + 3) == 5


def test_blackout_accounting():
    s = _schedule()
    assert s.blackout_cycles_until(s.t_rfc) == s.t_rfc
    assert s.blackout_cycles_until(s.t_refi) == s.t_rfc
    assert s.blackout_cycles_until(2 * s.t_refi) == 2 * s.t_rfc


def test_interval_must_exceed_blackout():
    timing = ddr2_commodity()
    import dataclasses

    broken = dataclasses.replace(timing, t_rfc=timing.refresh_interval + 1)
    with pytest.raises(ValueError):
        RefreshSchedule(broken)


@settings(max_examples=100)
@given(
    time=st.integers(min_value=0, max_value=10**9),
    phase=st.integers(min_value=0, max_value=10**6),
)
def test_property_result_is_outside_blackout_and_not_early(time, phase):
    s = _schedule(phase=phase)
    available = s.earliest_available(time)
    assert time <= available <= time + s.t_rfc
    # The answer is itself available (no livelock chasing windows).
    assert s.earliest_available(available) == available
    # The returned time is genuinely outside any blackout window.
    if available >= s.phase:
        offset = (available - s.phase) % s.t_refi
        assert offset >= s.t_rfc or offset == 0 and available == s.phase + 0
        # (offset == 0 can only occur at window starts, which are inside
        # the blackout, so it must have been pushed to >= t_rfc)
        assert offset >= s.t_rfc
