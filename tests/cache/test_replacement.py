"""Unit tests for the replacement policies."""

import pytest

from repro.cache.array import CacheArray
from repro.cache.replacement import POLICIES, make_policy


def _array(policy, assoc=4, sets=2):
    return CacheArray(
        assoc * sets * 64, assoc, line_size=64, policy=policy, seed=7
    )


@pytest.mark.parametrize("policy", POLICIES)
def test_policies_maintain_capacity_invariant(policy):
    array = _array(policy, assoc=4, sets=2)
    for n in range(64):
        line = n * 64
        if not array.lookup(line):
            array.fill(line)
        assert array.resident_lines <= 8


@pytest.mark.parametrize("policy", POLICIES)
def test_victim_is_resident_and_frees_room(policy):
    array = _array(policy, assoc=2, sets=1)
    array.fill(0 * 64)
    array.fill(1 * 64)
    victim = array.fill(2 * 64)
    assert victim is not None
    assert victim[0] in (0, 64)
    assert array.probe(2 * 64)
    assert array.resident_lines == 2


@pytest.mark.parametrize("policy", POLICIES)
def test_invalidate_then_refill(policy):
    array = _array(policy, assoc=2, sets=1)
    array.fill(0)
    array.fill(64)
    array.invalidate(0)
    assert array.fill(128) is None  # room freed, no eviction needed


def test_lru_is_the_default_and_evicts_least_recent():
    array = CacheArray(2 * 64, 2, 64)
    assert array.policy.name == "lru"
    array.fill(0)
    array.fill(64)
    array.lookup(0)
    assert array.fill(128) == (64, False)


def test_srrip_resists_scans():
    """A hot line survives a one-pass scan that would flush LRU."""
    hot = 0
    scan = [n * 64 for n in range(1, 8)]

    def run(policy):
        array = _array(policy, assoc=4, sets=1)
        array.fill(hot)
        for _ in range(4):
            array.lookup(hot)  # establish reuse
        for line in scan:  # scanning fill burst
            if not array.lookup(line):
                array.fill(line)
        return array.probe(hot)

    assert not run("lru")  # LRU flushes the hot line
    assert run("srrip")  # SRRIP keeps it


def test_random_is_deterministic_per_seed():
    def victims(seed):
        array = CacheArray(4 * 64, 4, 64, policy="random", seed=seed)
        out = []
        for n in range(12):
            victim = array.fill(n * 64)
            if victim:
                out.append(victim[0])
        return out

    assert victims(3) == victims(3)


def test_unknown_policy_raises():
    with pytest.raises(ValueError, match="lru"):
        make_policy("belady")
