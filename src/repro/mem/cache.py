"""Set-associative cache array with LRU replacement — packed-array core.

The array models tags and line state only (the simulator is
timing-directed; data values for synchronization live in the timed
functional memory). Lines carry MESI-style states; simple write-back
caches use just ``SHARED`` (valid-clean) and ``MODIFIED`` (valid-dirty),
while the shared-memory architecture's snoopy protocol uses the full
MESI set.

Representation
--------------

Each cache keeps three flat native ``array`` columns indexed by
*absolute way* (``set_index * assoc + way``):

* ``tags``   — line address resident in the way, ``-1`` when invalid;
* ``states`` — the way's :class:`LineState` as a small int;
* ``stamps`` — a monotonically increasing LRU stamp, refreshed on every
  touching probe. Victim selection picks the resident way with the
  smallest stamp, which reproduces exactly the dict-insertion-order LRU
  the previous implementation kept (a hit re-inserts at the back;
  eviction pops the front).

There is one interface, in *line addresses* (byte address >>
``line_shift``): the primitives (:meth:`probe`, :meth:`probe_modify`,
:meth:`find`, :meth:`fill`, :meth:`evict`) return packed ints — no
per-access object allocation anywhere — and the ``make_*`` builders
specialize them into closures for the built paths and fast lanes. The
primitives are the reference those closures are tested against and
the fallback for associativity above 2. Residency is read whole
through :meth:`export_sets` or straight from the columns.

The columns are mutated strictly in place (``import_sets`` refills
them, never rebinds them) and the LRU tick lives in a one-element
list, so closures built by :meth:`make_probe` /
:meth:`make_probe_modify` stay valid for the cache's whole lifetime,
including across checkpoint restore.

Ordering contract
-----------------

:meth:`export_sets` lists sets in index order and, within each set,
resident lines in LRU order — least recently used first, most recently
used last. The checkpoint walker relies on this: a snapshot stores each
set's lines in that order and a restore re-stamps them in sequence,
which preserves every future replacement decision (only the relative
recency order within a set matters).
"""

from __future__ import annotations

from array import array
from enum import IntEnum
from typing import Callable

from repro.errors import ConfigError


class LineState(IntEnum):
    """MESI line states (simple caches use SHARED/MODIFIED only)."""

    INVALID = 0
    SHARED = 1
    EXCLUSIVE = 2
    MODIFIED = 3


#: Plain-int mirrors of :class:`LineState` for the hot paths (IntEnum
#: attribute access costs a dict lookup per use).
INVALID = 0
SHARED = 1
EXCLUSIVE = 2
MODIFIED = 3


#: Bumped whenever any cache loses a line through :meth:`CacheArray.evict`
#: — the only way a line leaves a cache other than its own fills. The
#: run loop compares it for *change* to learn that a parked spinner's
#: line may have left its L1 (``repro.core.system``); it is never read
#: as a count, so sharing it between systems only costs a spare check.
EVICT_EPOCH = [0]


def _log2_exact(value: int, what: str) -> int:
    if value <= 0 or value & (value - 1):
        raise ConfigError(f"{what} must be a power of two, got {value}")
    return value.bit_length() - 1


class CacheArray:
    """One cache's tag array: set-associative, LRU, write-back capable.

    Addresses are line addresses (byte address >> ``line_shift``),
    except the byte address a built lane takes. Statistics are *not*
    counted here — the memory systems know the access semantics
    and count into :class:`~repro.sim.stats.CacheStats` themselves; the
    array only answers hit/miss/evict questions and tracks which misses
    are invalidation misses.
    """

    __slots__ = (
        "line_shift",
        "set_bits",
        "name",
        "size",
        "assoc",
        "line_size",
        "n_sets",
        "_set_mask",
        "tags",
        "states",
        "stamps",
        "_tick",
        "invalidated",
    )

    def __init__(
        self,
        name: str,
        size: int,
        assoc: int,
        line_size: int,
    ) -> None:
        if assoc <= 0:
            raise ConfigError(f"associativity must be positive, got {assoc}")
        self.line_shift = _log2_exact(line_size, "line size")
        if size % (line_size * assoc):
            raise ConfigError(
                f"cache size {size} is not divisible by "
                f"line_size*assoc = {line_size * assoc}"
            )
        n_sets = size // (line_size * assoc)
        self.set_bits = _log2_exact(n_sets, "number of sets")
        self.name = name
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.n_sets = n_sets
        self._set_mask = n_sets - 1
        n_ways = n_sets * assoc
        self.tags = array("q", [-1]) * n_ways
        self.states = array("b", [0]) * n_ways
        self.stamps = array("q", [0]) * n_ways
        # One-element list so probe closures share the counter.
        self._tick = [0]
        #: The lines a coherence action removed (§4's invalidation
        #: misses, L1I/L2I): the next miss on one is an invalidation
        #: miss, and a refill forgets it, so a later eviction of the
        #: refetched line is an ordinary replacement. A built path
        #: captures the set to classify a miss with one membership
        #: test; like the columns it is only ever mutated in place,
        #: checkpoint restore included.
        self.invalidated: set[int] = set()

    # ------------------------------------------------------------------
    # packed primitives (line-address domain, allocation free)

    def probe(self, line_addr: int) -> int:
        """LRU-refreshing probe: the line's state, or ``-1`` on a miss."""
        tags = self.tags
        base = (line_addr & self._set_mask) * self.assoc
        for way in range(base, base + self.assoc):
            if tags[way] == line_addr:
                tick = self._tick
                self.stamps[way] = tick[0]
                tick[0] += 1
                return self.states[way]
        return -1

    def probe_modify(self, line_addr: int) -> int:
        """Store-hit probe: refresh LRU and set the line MODIFIED.

        Returns the line's *previous* state, or ``-1`` on a miss
        (nothing touched).
        """
        tags = self.tags
        base = (line_addr & self._set_mask) * self.assoc
        for way in range(base, base + self.assoc):
            if tags[way] == line_addr:
                tick = self._tick
                self.stamps[way] = tick[0]
                tick[0] += 1
                states = self.states
                previous = states[way]
                states[way] = MODIFIED
                return previous
        return -1

    def find(self, line_addr: int) -> int:
        """Absolute way index holding the line, or ``-1``; no LRU."""
        tags = self.tags
        base = (line_addr & self._set_mask) * self.assoc
        for way in range(base, base + self.assoc):
            if tags[way] == line_addr:
                return way
        return -1

    def fill(self, line_addr: int, state: int) -> int:
        """Fill the line, returning the packed victim.

        The victim is ``(victim_line_addr << 2) | victim_state`` when
        the set was full (``-1`` otherwise) so the caller can issue a
        writeback if it was dirty and propagate inclusion
        invalidations. If the line is already resident its state is
        overwritten and LRU refreshed (no victim, no fill note).
        """
        tags = self.tags
        stamps = self.stamps
        base = (line_addr & self._set_mask) * self.assoc
        victim = -1
        victim_stamp = -1
        empty = -1
        for way in range(base, base + self.assoc):
            tag = tags[way]
            if tag == line_addr:
                tick = self._tick
                stamps[way] = tick[0]
                tick[0] += 1
                self.states[way] = state
                return -1
            if tag < 0:
                if empty < 0:
                    empty = way
            elif victim < 0 or stamps[way] < victim_stamp:
                victim = way
                victim_stamp = stamps[way]
        packed = -1
        if empty >= 0:
            way = empty
        else:
            way = victim
            packed = (tags[way] << 2) | self.states[way]
        tags[way] = line_addr
        self.states[way] = state
        tick = self._tick
        stamps[way] = tick[0]
        tick[0] += 1
        self.invalidated.discard(line_addr)
        return packed

    def evict(self, line_addr: int, coherence: bool = True) -> int:
        """Remove the line if resident; returns its state or ``-1``.

        With ``coherence=True`` (an invalidation caused by another
        processor or by inclusion), the next miss on this line counts
        as an invalidation miss.
        """
        way = self.find(line_addr)
        if way < 0:
            return -1
        self.tags[way] = -1
        EVICT_EPOCH[0] += 1
        if coherence:
            self.invalidated.add(line_addr)
        return self.states[way]

    # ------------------------------------------------------------------
    # specialized builders (fast lanes and built access paths)
    #
    # Each returns a closure over the columns, unrolled for one and two
    # ways; wider arrays get the bound generic method above, which is
    # also the reference the unrolled forms are tested against
    # (``tests/test_probe_core.py``). A direct-mapped set has no
    # recency to keep, so its closures leave the stamps alone.

    def make_probe(self) -> Callable[[int], int]:
        """Build an allocation-free LRU-refreshing probe closure.

        ``probe(line_addr) -> state | -1``, specialized (unrolled) for
        the cache's associativity. Valid for the cache's lifetime: the
        columns are captured by reference and only ever mutated in
        place.
        """
        tags = self.tags
        states = self.states
        stamps = self.stamps
        tick = self._tick
        mask = self._set_mask
        if self.assoc == 1:
            def probe(line_addr: int) -> int:
                way = line_addr & mask
                if tags[way] != line_addr:
                    return -1
                return states[way]

            return probe
        if self.assoc == 2:
            def probe(line_addr: int) -> int:
                way = (line_addr & mask) << 1
                if tags[way] != line_addr:
                    way += 1
                    if tags[way] != line_addr:
                        return -1
                stamps[way] = tick[0]
                tick[0] += 1
                return states[way]

            return probe
        return self.probe

    def make_probe_modify(self) -> Callable[[int], int]:
        """Build a store-hit probe closure (see :meth:`probe_modify`)."""
        tags = self.tags
        states = self.states
        stamps = self.stamps
        tick = self._tick
        mask = self._set_mask
        if self.assoc == 1:
            def probe_modify(line_addr: int) -> int:
                way = line_addr & mask
                if tags[way] != line_addr:
                    return -1
                previous = states[way]
                states[way] = MODIFIED
                return previous

            return probe_modify
        if self.assoc == 2:
            def probe_modify(line_addr: int) -> int:
                way = (line_addr & mask) << 1
                if tags[way] != line_addr:
                    way += 1
                    if tags[way] != line_addr:
                        return -1
                stamps[way] = tick[0]
                tick[0] += 1
                previous = states[way]
                states[way] = MODIFIED
                return previous

            return probe_modify
        return self.probe_modify

    def make_find(self) -> Callable[[int], int]:
        """Build a :meth:`find` closure: the absolute way holding the
        line or ``-1``, no LRU touch — what a snoop walk and a state
        poke (``states[way] = …``) start from."""
        tags = self.tags
        mask = self._set_mask
        if self.assoc == 1:
            def find(line_addr: int) -> int:
                way = line_addr & mask
                return way if tags[way] == line_addr else -1

            return find
        if self.assoc == 2:
            def find(line_addr: int) -> int:
                way = (line_addr & mask) << 1
                if tags[way] == line_addr:
                    return way
                way += 1
                return way if tags[way] == line_addr else -1

            return find
        return self.find

    def make_evict(self) -> Callable[..., int]:
        """Build an :meth:`evict` closure: ``evict(line_addr,
        coherence=True) -> state | -1``. Like the method it bumps
        :data:`EVICT_EPOCH` on every line it removes and notes a
        coherence removal for the next miss's classification."""
        tags = self.tags
        states = self.states
        mask = self._set_mask
        note_invalidation = self.invalidated.add
        epoch = EVICT_EPOCH
        if self.assoc == 1:
            def evict(line_addr: int, coherence: bool = True) -> int:
                way = line_addr & mask
                if tags[way] != line_addr:
                    return -1
                tags[way] = -1
                epoch[0] += 1
                if coherence:
                    note_invalidation(line_addr)
                return states[way]

            return evict
        if self.assoc == 2:
            def evict(line_addr: int, coherence: bool = True) -> int:
                way = (line_addr & mask) << 1
                if tags[way] != line_addr:
                    way += 1
                    if tags[way] != line_addr:
                        return -1
                tags[way] = -1
                epoch[0] += 1
                if coherence:
                    note_invalidation(line_addr)
                return states[way]

            return evict
        return self.evict

    def make_fill(self) -> Callable[[int, int], int]:
        """Build a :meth:`fill` closure: ``fill(line_addr, state) ->
        packed victim | -1``, one walk of the set that finds the line,
        an empty way or the LRU victim."""
        tags = self.tags
        states = self.states
        stamps = self.stamps
        tick = self._tick
        mask = self._set_mask
        note_fill = self.invalidated.discard
        if self.assoc == 1:
            def fill(line_addr: int, state: int) -> int:
                way = line_addr & mask
                tag = tags[way]
                if tag == line_addr:
                    states[way] = state
                    return -1
                packed = (tag << 2) | states[way] if tag >= 0 else -1
                tags[way] = line_addr
                states[way] = state
                note_fill(line_addr)
                return packed

            return fill
        if self.assoc == 2:
            def fill(line_addr: int, state: int) -> int:
                way = (line_addr & mask) << 1
                tag = tags[way]
                other_tag = tags[way + 1]
                packed = -1
                if tag == line_addr or other_tag == line_addr:
                    if tag != line_addr:
                        way += 1
                elif tag >= 0:
                    if other_tag < 0:
                        way += 1
                    else:
                        if stamps[way + 1] < stamps[way]:
                            way += 1
                            tag = other_tag
                        packed = (tag << 2) | states[way]
                    tags[way] = line_addr
                    note_fill(line_addr)
                else:
                    tags[way] = line_addr
                    note_fill(line_addr)
                states[way] = state
                stamps[way] = tick[0]
                tick[0] += 1
                return packed

            return fill
        return self.fill

    def make_read_lane(self, stats=None) -> Callable[[int, int], int]:
        """Build a single-cycle read-hit lane over this array.

        ``lane(addr, at) -> at + 1`` when the line holding byte address
        ``addr`` is resident — LRU refreshed, ``stats.reads`` counted
        when ``stats`` is given (an I-cache's reads are counted by its
        CPU) — else ``-1`` with nothing touched. The probe is inlined,
        so a hit is one Python call: shift, tag compare, stamp, count.
        """
        tags = self.tags
        stamps = self.stamps
        tick = self._tick
        mask = self._set_mask
        shift = self.line_shift
        if self.assoc == 1:
            def lane(addr: int, at: int) -> int:
                line_addr = addr >> shift
                if tags[line_addr & mask] != line_addr:
                    return -1
                if stats is not None:
                    stats.reads += 1
                return at + 1

            return lane
        if self.assoc == 2:
            def lane(addr: int, at: int) -> int:
                line_addr = addr >> shift
                way = (line_addr & mask) << 1
                if tags[way] != line_addr:
                    way += 1
                    if tags[way] != line_addr:
                        return -1
                stamps[way] = tick[0]
                tick[0] += 1
                if stats is not None:
                    stats.reads += 1
                return at + 1

            return lane
        probe = self.probe

        def lane(addr: int, at: int) -> int:
            if probe(addr >> shift) < 0:
                return -1
            if stats is not None:
                stats.reads += 1
            return at + 1

        return lane

    def make_dirty_store_lane(self, stats, post) -> Callable[[int, int], int]:
        """Build the write-back posted-store lane over this array.

        ``lane(addr, at) -> release + 1`` only when the line is
        resident MODIFIED: LRU refreshed, ``stats.writes`` counted and
        the store posted through ``post`` (a
        :meth:`WriteBuffer.make_post
        <repro.mem.writebuffer.WriteBuffer.make_post>` closure) to
        complete next cycle. Any other state — E/S hits need upgrade
        transactions — or a miss declines with ``-1``, nothing touched.
        """
        tags = self.tags
        states = self.states
        stamps = self.stamps
        tick = self._tick
        mask = self._set_mask
        shift = self.line_shift
        if self.assoc == 1:
            def lane(addr: int, at: int) -> int:
                line_addr = addr >> shift
                way = line_addr & mask
                if tags[way] != line_addr or states[way] != MODIFIED:
                    return -1
                stats.writes += 1
                return post(at, at + 1) + 1

            return lane
        if self.assoc == 2:
            def lane(addr: int, at: int) -> int:
                line_addr = addr >> shift
                way = (line_addr & mask) << 1
                if tags[way] != line_addr:
                    way += 1
                    if tags[way] != line_addr:
                        return -1
                if states[way] != MODIFIED:
                    return -1
                stamps[way] = tick[0]
                tick[0] += 1
                stats.writes += 1
                return post(at, at + 1) + 1

            return lane
        find = self.find

        def lane(addr: int, at: int) -> int:
            way = find(addr >> shift)
            if way < 0 or states[way] != MODIFIED:
                return -1
            stamps[way] = tick[0]
            tick[0] += 1
            stats.writes += 1
            return post(at, at + 1) + 1

        return lane

    # ------------------------------------------------------------------
    # checkpoint support

    def export_sets(self) -> list[list[list[int]]]:
        """Per-set ``[line_addr, state]`` pairs in LRU order.

        This is the ``repro.ckpt/1`` wire format for a cache: the order
        within a set *is* the recency order, exactly as the historical
        dict-of-lines representation serialized it. It is also the one
        way to read residency whole (tests, invariant checks).
        """
        tags = self.tags
        states = self.states
        stamps = self.stamps
        assoc = self.assoc
        sets = []
        for base in range(0, len(tags), assoc):
            ways = [way for way in range(base, base + assoc) if tags[way] >= 0]
            ways.sort(key=stamps.__getitem__)
            sets.append([[tags[way], states[way]] for way in ways])
        return sets

    def import_sets(self, sets: list) -> None:
        """Rebuild residency from :meth:`export_sets` data.

        Lines are re-stamped in their stored (LRU) order, which
        reproduces every future replacement decision: victim choice
        depends only on relative recency within a set.
        """
        tags = self.tags
        states = self.states
        stamps = self.stamps
        assoc = self.assoc
        for way in range(len(tags)):
            tags[way] = -1
            states[way] = 0
            stamps[way] = 0
        tick = 0
        for set_index, recorded in enumerate(sets):
            base = set_index * assoc
            for offset, (line_addr, state) in enumerate(recorded):
                way = base + offset
                tags[way] = line_addr
                states[way] = state
                stamps[way] = tick
                tick += 1
        self._tick[0] = tick

    def __repr__(self) -> str:
        return (
            f"<CacheArray {self.name!r} {self.size}B "
            f"{self.assoc}-way {self.line_size}B lines>"
        )
