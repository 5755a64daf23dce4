"""Probe-core contracts: LRU iteration order and write-buffer edges.

Direct coverage for contracts the packed-array probe core leans on
implicitly elsewhere:

* the documented iteration/flush ordering of :class:`CacheArray`
  (sets in index order, LRU within each set — the checkpoint walker
  round-trips exactly this order);
* write-buffer admission edge cases (the retire race at the exact
  completion cycle, same-line stores, drain at a barrier);
* :class:`InvalidationTracker` classification across evict/re-fill of
  the same tag;
* every built closure (``make_probe`` … ``make_fill``, the read and
  dirty-store lanes, ``WriteBuffer.make_post``) against the generic
  method it specializes, on twin objects driven by one random stream —
  same answers, same states, same LRU order, same stamp counter;
* on every preset's built hierarchy, the read lane taking every line
  ``access()`` made resident.
"""

import random

import pytest

from repro.core.configs import build_memory, config_for_scale
from repro.mem.cache import EVICT_EPOCH, MODIFIED, SHARED, CacheArray, LineState
from repro.mem.types import AccessKind
from repro.mem.writebuffer import WriteBuffer
from repro.sim.stats import CacheStats, MissKind, SystemStats


def make_cache(size=1024, assoc=2, line=32, name="c"):
    return CacheArray(name, size, assoc, line)


# ----------------------------------------------------------------------
# lines()/flush() ordering contract


def test_lines_order_is_sets_then_lru():
    cache = make_cache(size=256, assoc=2, line=32)  # 4 sets, 2 ways
    cache.insert(0x000)  # line 0 -> set 0
    cache.insert(0x080)  # line 4 -> set 0
    cache.insert(0x020)  # line 1 -> set 1
    # Touch line 0: line 4 becomes the set's LRU entry.
    cache.lookup(0x000)
    order = [line.line_addr for line in cache.lines()]
    assert order == [4, 0, 1]


def test_probe_refresh_reorders_lines():
    cache = make_cache(size=64, assoc=2, line=32)  # 1 set, 2 ways
    cache.insert(0x000)
    cache.insert(0x020)
    assert [line.line_addr for line in cache.lines()] == [0, 1]
    # A packed probe is an LRU touch: the probed line moves to MRU.
    assert cache.probe(0) >= 0
    assert [line.line_addr for line in cache.lines()] == [1, 0]
    # probe_modify refreshes recency too (and dirties the line).
    assert cache.probe_modify(1) >= 0
    assert [line.line_addr for line in cache.lines()] == [0, 1]
    assert cache.state_of(0x020) == LineState.MODIFIED


def test_flush_returns_dirty_lines_in_lines_order():
    cache = make_cache(size=256, assoc=2, line=32)  # 4 sets
    cache.insert(0x040, LineState.MODIFIED)  # line 2 -> set 2
    cache.insert(0x000, LineState.MODIFIED)  # line 0 -> set 0
    cache.insert(0x080, LineState.MODIFIED)  # line 4 -> set 0
    cache.insert(0x020)                      # line 1 -> set 1, clean
    cache.lookup(0x000)  # set 0 LRU order becomes [4, 0]
    expected = [
        line.line_addr for line in cache.lines() if line.dirty
    ]
    flushed = [line.line_addr for line in cache.flush()]
    assert flushed == expected == [4, 0, 2]
    assert cache.resident_count() == 0


def test_export_import_preserves_replacement_decisions():
    original = make_cache(size=64, assoc=2, line=32)  # 1 set, 2 ways
    original.insert(0x000)
    original.insert(0x020)
    original.lookup(0x000)  # line 1 is now the victim-to-be

    clone = make_cache(size=64, assoc=2, line=32)
    clone.import_sets(original.export_sets())

    victim_a = original.insert(0x040)
    victim_b = clone.insert(0x040)
    assert victim_a is not None and victim_b is not None
    assert victim_a.line_addr == victim_b.line_addr == 1


# ----------------------------------------------------------------------
# write-buffer admission edges


def test_admit_retire_race_at_exact_completion_cycle():
    # The oldest entry completes exactly at the admit cycle: the slot
    # is free at that cycle, so the store enters without a stall.
    buffer = WriteBuffer(depth=1)
    buffer.admit(0)
    buffer.push(5)
    start, stalled = buffer.admit(5)
    assert start == 5 and not stalled
    assert buffer.full_stalls == 0


def test_admit_one_cycle_before_completion_stalls():
    buffer = WriteBuffer(depth=1)
    buffer.admit(0)
    buffer.push(5)
    start, stalled = buffer.admit(4)
    assert stalled and start == 5
    assert buffer.full_stalls == 1


def test_same_line_stores_are_not_coalesced():
    # The model performs no write-merging: back-to-back stores to the
    # same line each take a slot and drain in order (the paper's
    # write-through port-contention accounting depends on every store
    # reaching the next level).
    buffer = WriteBuffer(depth=2)
    assert buffer.push(10) == 10
    assert buffer.push(12) == 12
    assert buffer.occupancy == 2
    assert buffer.stores == 2
    start, stalled = buffer.admit(0)  # full until the oldest drains
    assert stalled and start == 10


def test_drain_at_barrier_retires_everything():
    buffer = WriteBuffer(depth=4)
    buffer.push(30)
    buffer.push(90)
    barrier_at = buffer.drain_time(10)
    assert barrier_at == 90
    # After the drain point every slot is free again: a burst of
    # depth-many stores admits without a single stall.
    for offset in range(buffer.depth):
        start, stalled = buffer.admit(barrier_at + offset)
        assert not stalled
        buffer.push(barrier_at + offset + 50)
    assert buffer.occupancy == buffer.depth


# ----------------------------------------------------------------------
# invalidation classification across evict/re-fill


def test_refill_resets_invalidation_classification():
    cache = make_cache()
    cache.insert(0x100)
    cache.invalidate(0x100)  # coherence action
    assert cache.classify_miss(0x100) == MissKind.MISS_INVALIDATION
    # Refetch the line: the tracker forgets the old invalidation, so a
    # later non-coherence eviction classifies as replacement again.
    cache.insert(0x100)
    cache.invalidate(0x100, coherence=False)
    assert cache.classify_miss(0x100) == MissKind.MISS_REPLACEMENT


def test_second_invalidation_of_same_tag_counts_again():
    cache = make_cache()
    line_addr = 0x100 >> cache.line_shift
    for _ in range(2):
        cache.fill(line_addr, LineState.SHARED)
        assert cache.evict(line_addr, coherence=True) >= 0
        assert cache.classify_line(line_addr) == MissKind.MISS_INVALIDATION
        # fill() notes the refetch; the stale entry must not linger.
        cache.fill(line_addr, LineState.SHARED)
        assert line_addr not in cache.tracker
        assert cache.evict(line_addr, coherence=False) >= 0
        assert cache.classify_line(line_addr) == MissKind.MISS_REPLACEMENT


def test_capacity_eviction_of_previously_invalidated_line():
    # Line invalidated by coherence, refetched, then pushed out by
    # capacity pressure: the capacity eviction must classify as a
    # replacement miss even though the tag was once invalidated.
    cache = make_cache(size=64, assoc=2, line=32)  # 1 set, 2 ways
    cache.insert(0x000)
    cache.invalidate(0x000)
    cache.insert(0x000)
    cache.insert(0x020)
    cache.insert(0x040)  # evicts 0x000 (LRU) by capacity
    assert not cache.contains(0x000)
    assert cache.classify_miss(0x000) == MissKind.MISS_REPLACEMENT


# ----------------------------------------------------------------------
# built closures vs the generic methods they specialize


def _same_cache(built: CacheArray, reference: CacheArray) -> None:
    """State, LRU order within every set, the invalidation set and —
    where recency exists — the stamp counter."""
    assert built.export_sets() == reference.export_sets()
    assert built.invalidated == reference.invalidated
    if built.assoc > 1:
        assert built._tick == reference._tick


@pytest.mark.parametrize("assoc", (1, 2, 4))
def test_built_primitives_match_the_generic_methods(assoc):
    """One random stream of probes, stores, fills, evictions and finds
    through the built closures of one cache and the methods of its
    twin."""
    built = make_cache(size=32 * assoc * 4, assoc=assoc)  # 4 sets
    reference = make_cache(size=32 * assoc * 4, assoc=assoc)
    closures = {
        "probe": built.make_probe(),
        "probe_modify": built.make_probe_modify(),
        "find": built.make_find(),
        "evict": built.make_evict(),
        "fill": built.make_fill(),
    }
    rng = random.Random(assoc)
    for _ in range(4000):
        line_addr = rng.randrange(4 * assoc * 3)
        op = rng.choice(("probe", "probe_modify", "find", "evict", "fill"))
        if op == "fill":
            args = (line_addr, rng.choice((SHARED, MODIFIED)))
        elif op == "evict":
            args = (line_addr, rng.random() < 0.5)
        else:
            args = (line_addr,)
        epoch = EVICT_EPOCH[0]
        got = closures[op](*args)
        moved = EVICT_EPOCH[0] - epoch
        assert got == getattr(reference, op)(*args), (op, args)
        if op == "evict":
            # every removal moves the epoch a parked spinner watches
            assert moved == (1 if got >= 0 else 0)
        _same_cache(built, reference)


@pytest.mark.parametrize("counted", (True, False), ids=("l1d", "l1i"))
@pytest.mark.parametrize("assoc", (1, 2, 4))
def test_read_lane_is_a_counted_probe(assoc, counted):
    """``lane(addr, at)`` is ``probe(addr >> shift)`` plus one
    ``stats.reads`` on a hit: ``at + 1``, or ``-1`` with nothing
    touched."""
    built = make_cache(size=32 * assoc * 4, assoc=assoc)
    reference = make_cache(size=32 * assoc * 4, assoc=assoc)
    stats = CacheStats() if counted else None
    lane = built.make_read_lane(stats)
    rng = random.Random(7 * assoc)
    hits = 0
    for at in range(3000):
        line_addr = rng.randrange(4 * assoc * 2)
        if rng.random() < 0.3:
            built.fill(line_addr, SHARED)
            reference.fill(line_addr, SHARED)
        addr = (line_addr << 5) | rng.randrange(32)
        hit = reference.probe(line_addr) >= 0
        hits += hit
        assert lane(addr, at) == (at + 1 if hit else -1)
        _same_cache(built, reference)
    assert hits and hits < 3000
    if counted:
        assert stats.reads == hits


@pytest.mark.parametrize("assoc", (1, 2, 4))
def test_dirty_store_lane_takes_only_modified_lines(assoc):
    """The write-back store lane: a MODIFIED hit touches LRU, counts a
    write and posts the store to complete next cycle; a clean hit or a
    miss declines with nothing touched."""
    built = make_cache(size=32 * assoc * 4, assoc=assoc)
    reference = make_cache(size=32 * assoc * 4, assoc=assoc)
    stats = CacheStats()
    buffer, twin = WriteBuffer(depth=2), WriteBuffer(depth=2)
    lane = built.make_dirty_store_lane(stats, buffer.make_post())
    rng = random.Random(11 * assoc)
    taken = 0
    for at in range(3000):
        line_addr = rng.randrange(4 * assoc * 2)
        if rng.random() < 0.3:
            state = rng.choice((SHARED, MODIFIED))
            built.fill(line_addr, state)
            reference.fill(line_addr, state)
        if reference.probe_quiet(line_addr) == MODIFIED:
            reference.probe(line_addr)
            release, _stalled = twin.admit(at)
            twin.push(at + 1)
            expected = release + 1
            taken += 1
        else:
            expected = -1
        assert lane(line_addr << 5, at) == expected
        _same_cache(built, reference)
        assert list(buffer._pending) == list(twin._pending)
    assert taken and stats.writes == taken
    assert (buffer.stores, buffer.full_stalls) == (twin.stores, twin.full_stalls)


def test_post_is_admit_then_push():
    """``post(at, done)`` is ``admit(at)`` + ``push(done)``: same
    release, the stall readable as ``release > at``, the visibility
    time as ``last_visible``, and every counter."""
    buffer, twin = WriteBuffer(depth=3), WriteBuffer(depth=3)
    post = buffer.make_post()
    rng = random.Random(3)
    at = 0
    stalls = 0
    for _ in range(2000):
        at += rng.randrange(4)
        done = at + rng.randrange(1, 12)
        release, stalled = twin.admit(at)
        visible = twin.push(done)
        assert post(at, done) == release
        assert (release > at) == stalled
        assert buffer.last_visible == visible
        assert list(buffer._pending) == list(twin._pending)
        stalls += stalled
    assert stalls and buffer.full_stalls == twin.full_stalls == stalls
    assert buffer.stores == twin.stores == 2000


# ----------------------------------------------------------------------
# the read lane takes every resident line, on every preset


@pytest.mark.parametrize(
    "arch", ("shared-l1", "shared-l2", "shared-mem", "shared-l3", "cluster-l1")
)
def test_read_lane_takes_every_warm_line(arch):
    """Lines an ``access()`` made resident are all read-lane hits: 8
    back-to-back lines per CPU, 32 consecutive lines in all, fit every
    hierarchy's L1 (the 64-line shared one included) in distinct sets.
    A decline here is a lane that hands hits to the miss path."""
    n_cpus, hit_lines, line = 4, 8, 32
    mem = build_memory(
        arch, config_for_scale("test", n_cpus), SystemStats.for_cpus(n_cpus)
    )
    hit_base = [0x10000 + cpu * hit_lines * line for cpu in range(n_cpus)]
    at = 0
    for cpu in range(n_cpus):
        for index in range(hit_lines):
            at = mem.access(
                cpu, AccessKind.LOAD, hit_base[cpu] + index * line, at
            ).done
    declined = []
    for _ in range(3):
        for cpu in range(n_cpus):
            lane = mem.fast_lanes(cpu)[1]
            for index in range(hit_lines):
                addr = hit_base[cpu] + index * line
                done = lane(addr, at)
                if done < 0:
                    declined.append((cpu, hex(addr)))
                else:
                    at = done
    assert declined == []
