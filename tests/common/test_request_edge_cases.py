"""Edge-case tests for request objects and their per-request fields."""

import pytest

from repro.common.request import AccessType, MemoryRequest


def test_mshr_stall_start_is_per_request():
    a = MemoryRequest(0, AccessType.READ)
    b = MemoryRequest(0, AccessType.READ)
    a.mshr_stall_start = 7
    assert b.mshr_stall_start is None


def test_callback_exception_leaves_request_completed():
    request = MemoryRequest(
        0x40, AccessType.READ,
        callback=lambda r: (_ for _ in ()).throw(RuntimeError("cb boom")),
    )
    with pytest.raises(RuntimeError, match="cb boom"):
        request.complete(5)
    assert request.completed_at == 5
    # A second complete still raises (the first one counted).
    with pytest.raises(RuntimeError, match="completed twice"):
        request.complete(6)


def test_zero_latency_completion():
    request = MemoryRequest(0, AccessType.READ, created_at=100)
    request.complete(100)
    assert request.latency == 0


def test_row_buffer_hit_annotation_lifecycle():
    request = MemoryRequest(0, AccessType.READ)
    assert request.row_buffer_hit is None
    request.row_buffer_hit = True
    assert request.row_buffer_hit is True
