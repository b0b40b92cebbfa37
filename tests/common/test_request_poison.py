"""Poison flag lifecycle."""

from repro.common.request import AccessType, MemoryRequest


def test_poisoned_defaults_false_and_survives_annotations():
    req = MemoryRequest(0x1000, AccessType.READ)
    assert req.poisoned is False
    req.poisoned = True
    req.complete(now=10)
    assert req.poisoned is True
