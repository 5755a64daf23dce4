"""Tests for the set-associative cache array (line-address API)."""

import pytest

from repro.errors import ConfigError
from repro.mem.cache import INVALID, MODIFIED, SHARED, CacheArray


def make_cache(size=1024, assoc=2, line=32, name="c"):
    return CacheArray(name, size, assoc, line)


def test_geometry():
    cache = make_cache(size=1024, assoc=2, line=32)
    assert cache.n_sets == 16
    assert cache.line_shift == 5


def test_bad_geometry_rejected():
    with pytest.raises(ConfigError):
        make_cache(size=1000)  # not divisible
    with pytest.raises(ConfigError):
        make_cache(line=33)
    with pytest.raises(ConfigError):
        make_cache(assoc=0)
    with pytest.raises(ConfigError):
        CacheArray("c", 96, 1, 32)  # 3 sets: not a power of two


def test_miss_then_hit():
    cache = make_cache()
    assert cache.probe(8) == -1
    assert cache.fill(8, SHARED) == -1
    assert cache.probe(8) == SHARED


def test_same_line_different_offsets_hit():
    cache = make_cache()
    cache.fill(0x100 >> cache.line_shift, SHARED)
    assert cache.find((0x100 + 31) >> cache.line_shift) >= 0
    assert cache.find((0x100 + 32) >> cache.line_shift) < 0


def test_lru_eviction_order():
    cache = make_cache(size=64, assoc=2, line=32)  # 1 set, 2 ways
    cache.fill(0, SHARED)
    cache.fill(1, SHARED)
    cache.probe(0)  # touch line 0 so line 1 becomes LRU
    assert cache.fill(2, SHARED) == (1 << 2) | SHARED


def test_lookup_without_lru_update():
    cache = make_cache(size=64, assoc=2, line=32)
    cache.fill(0, SHARED)
    cache.fill(1, SHARED)
    assert cache.find(0) >= 0  # does NOT refresh
    assert cache.fill(2, SHARED) == (0 << 2) | SHARED


def test_insert_existing_refreshes_and_sets_state():
    cache = make_cache(size=64, assoc=2, line=32)
    cache.fill(0, SHARED)
    cache.fill(1, SHARED)
    assert cache.fill(0, MODIFIED) == -1
    assert cache.fill(2, SHARED) == (1 << 2) | SHARED
    assert cache.export_sets() == [[[0, MODIFIED], [2, SHARED]]]


def test_capacity_never_exceeded():
    cache = make_cache(size=256, assoc=2, line=32)  # 8 lines
    for line_addr in range(50):
        cache.fill(line_addr, SHARED)
    assert sum(tag >= 0 for tag in cache.tags) == 8


def test_invalidate_returns_line():
    cache = make_cache()
    cache.fill(8, MODIFIED)
    assert cache.evict(8) == MODIFIED
    assert cache.probe(8) == -1
    assert cache.evict(8) == -1  # already gone


def test_downgrade():
    # A snoop read downgrades in place: find the way, poke its state.
    cache = make_cache(size=64, assoc=2, line=32)
    cache.fill(0, MODIFIED)
    cache.fill(1, SHARED)
    cache.states[cache.find(0)] = SHARED
    # Residency and recency are untouched: line 0 is still the victim.
    assert cache.export_sets() == [[[0, SHARED], [1, SHARED]]]
    assert cache.fill(2, SHARED) == (0 << 2) | SHARED
    assert cache.find(5) == -1  # nothing to downgrade


def test_state_of_absent_is_invalid():
    cache = make_cache()
    assert set(cache.tags) == {-1}
    assert set(cache.states) == {INVALID}
    assert cache.probe(0x700 >> cache.line_shift) == -1
    assert cache.probe_modify(0x700 >> cache.line_shift) == -1
    # An evicted way is absent whatever its state column still holds.
    cache.fill(8, MODIFIED)
    cache.evict(8)
    assert cache.find(8) == -1
    assert cache.export_sets() == [[] for _ in range(cache.n_sets)]


def test_invalidation_miss_classification():
    cache = make_cache()
    cache.fill(8, SHARED)
    cache.evict(8, coherence=True)
    assert 8 in cache.invalidated
    # refetch clears the mark
    cache.fill(8, SHARED)
    cache.evict(8, coherence=False)
    assert 8 not in cache.invalidated


def test_replacement_miss_classification_for_cold():
    cache = make_cache()
    assert 0x999900 >> cache.line_shift not in cache.invalidated


def test_set_conflict_behaviour():
    # Direct-mapped: two lines one cache-size apart conflict.
    cache = make_cache(size=1024, assoc=1, line=32)
    cache.fill(0, SHARED)
    assert cache.fill(32, SHARED) == (0 << 2) | SHARED
    assert cache.find(0) < 0
    # 4-way absorbs the same conflict.
    cache4 = make_cache(size=1024, assoc=4, line=32)
    cache4.fill(0, SHARED)
    assert cache4.fill(32, SHARED) == -1
    assert cache4.find(0) >= 0


def test_export_sets_lists_every_resident_line():
    cache = make_cache()
    for line_addr in range(0, 10, 2):
        cache.fill(line_addr, SHARED)
    assert sorted(
        line for ways in cache.export_sets() for line, _ in ways
    ) == [0, 2, 4, 6, 8]
