"""Property-based tests (hypothesis) for core data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.bank import Resource
from repro.mem.cache import MODIFIED, SHARED, CacheArray
from repro.mem.functional import FunctionalMemory
from repro.mem.mshr import MshrFile
from repro.mem.writebuffer import WriteBuffer
from repro.sim.engine import Engine

# ----------------------------------------------------------------------
# cache vs. a reference LRU model

_ops = st.lists(
    st.tuples(
        st.sampled_from(["load", "store", "invalidate"]),
        st.integers(min_value=0, max_value=63),  # line index
    ),
    max_size=200,
)


class _ReferenceLru:
    """Oracle: per-set ordered list, most recent last."""

    def __init__(self, n_sets, assoc):
        self.n_sets = n_sets
        self.assoc = assoc
        self.sets = [[] for _ in range(n_sets)]

    def _set(self, line):
        return self.sets[line % self.n_sets]

    def touch(self, line):
        bucket = self._set(line)
        if line in bucket:
            bucket.remove(line)
            bucket.append(line)
            return True
        if len(bucket) >= self.assoc:
            bucket.pop(0)
        bucket.append(line)
        return False

    def invalidate(self, line):
        bucket = self._set(line)
        if line in bucket:
            bucket.remove(line)

    def contains(self, line):
        return line in self._set(line)


@given(_ops)
@settings(max_examples=200, deadline=None)
def test_cache_matches_reference_lru(operations):
    cache = CacheArray("p", size=512, assoc=2, line_size=32)  # 8 sets
    reference = _ReferenceLru(cache.n_sets, cache.assoc)
    for op, line in operations:
        if op == "invalidate":
            cache.evict(line)
            reference.invalidate(line)
        else:
            hit = cache.probe(line) >= 0
            assert hit == reference.contains(line)
            if not hit:
                cache.fill(line, MODIFIED if op == "store" else SHARED)
            reference.touch(line)
    assert cache.export_sets() == [
        [[line, cache.states[cache.find(line)]] for line in bucket]
        for bucket in reference.sets
    ]


@given(_ops)
@settings(max_examples=100, deadline=None)
def test_cache_capacity_invariant(operations):
    cache = CacheArray("p", size=256, assoc=2, line_size=32)
    for op, line in operations:
        if op == "invalidate":
            cache.evict(line)
        elif cache.probe(line) < 0:
            cache.fill(line, SHARED)
        resident = [
            (way, tag) for way, tag in enumerate(cache.tags) if tag >= 0
        ]
        assert len({tag for _, tag in resident}) == len(resident)
        for way, tag in resident:
            assert tag % cache.n_sets == way // cache.assoc


# ----------------------------------------------------------------------
# functional memory

_writes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),     # addr index
        st.integers(min_value=0, max_value=100),   # visible_at
        st.integers(min_value=0, max_value=999),   # value
    ),
    max_size=60,
)


@given(_writes, st.integers(min_value=0, max_value=120))
@settings(max_examples=200, deadline=None)
def test_functional_read_returns_latest_visible(writes, when):
    memory = FunctionalMemory()
    addrs = [0x100, 0x200, 0x300, 0x400]
    log = []
    for index, visible_at, value in writes:
        memory.write(addrs[index], value, visible_at)
        log.append((addrs[index], visible_at, value))
    for addr in addrs:
        visible = [
            (t, i, v)
            for i, (a, t, v) in enumerate(log)
            if a == addr and t <= when
        ]
        expected = max(visible)[2] if visible else 0
        assert memory.read(addr, when) == expected


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=8))
@settings(max_examples=100, deadline=None)
def test_simultaneous_sc_single_winner(cpus):
    """However many CPUs race LL/SC at identical times, exactly one
    SC succeeds."""
    memory = FunctionalMemory()
    contenders = sorted(set(cpus))
    for cpu in contenders:
        assert memory.load_linked(cpu, 0x500, 10) == 0
    outcomes = [
        memory.store_conditional(cpu, 0x500, 1, 12) for cpu in contenders
    ]
    assert outcomes.count(True) == 1


# ----------------------------------------------------------------------
# resources / buffers / mshr

_acquires = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=10),
    ),
    min_size=1,
    max_size=100,
)


@given(_acquires)
@settings(max_examples=100, deadline=None)
def test_resource_service_never_overlaps(acquires):
    res = Resource("r")
    intervals = []
    for at, occ in sorted(acquires):
        start = res.acquire(at, occ)
        assert start >= at
        intervals.append((start, start + occ))
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        assert s2 >= e1  # FIFO, no overlap


@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=50))
@settings(max_examples=100, deadline=None)
def test_writebuffer_visibility_is_monotonic(dones):
    buffer = WriteBuffer(depth=4)
    last = 0
    for done in dones:
        visible = buffer.push(done)
        assert visible >= last
        assert visible >= done
        last = visible


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=1, max_value=200),
        ),
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_mshr_never_exceeds_capacity(allocs):
    mshrs = MshrFile(capacity=4)
    now = 0
    for line, done in allocs:
        now += 1
        mshrs.retire(now)
        mshrs.allocate(line, now + done)
        assert mshrs.outstanding <= 4


# ----------------------------------------------------------------------
# engine ordering under arbitrary schedules


@given(
    st.lists(
        st.integers(min_value=0, max_value=50), min_size=1, max_size=40
    )
)
@settings(max_examples=100, deadline=None)
def test_engine_executes_in_nondecreasing_time(times):
    engine = Engine()
    seen = []
    for t in times:
        engine.schedule(t, lambda t=t: seen.append(t))
    engine.drain()
    assert seen == sorted(seen)
    assert len(seen) == len(times)
