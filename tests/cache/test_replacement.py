"""Replacement order of the cache array: least recently used goes first."""

from repro.cache.array import CacheArray


def test_lru_is_the_default_and_evicts_least_recent():
    array = CacheArray(4 * 64, 4, 64)
    for n in range(4):
        array.fill(n * 64)
    for n in (2, 0, 3, 1):  # recency order, least recent first
        assert array.lookup(n * 64)
    victims = [array.fill((4 + n) * 64) for n in range(4)]
    assert victims == [(2 * 64, False), (0, False), (3 * 64, False), (64, False)]
