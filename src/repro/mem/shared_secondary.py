"""Sharing at a lower cache level — paper Section 2.3, at any depth.

Each CPU keeps one or more private, *write-through* cache levels — a
single-cycle L1 pair, optionally deeper private levels behind their own
ports — and all CPUs share one banked write-back level behind the
spec's interconnect. The paper's ``shared-l2`` is the one-private-level
case: the crossbar chip and extra die crossings raise the L2 latency
from 10 to 14 cycles, and its 64-bit datapath doubles the per-line
occupancy from 2 to 4 cycles. ``shared-l3`` (the 3D-stacked point,
arXiv 2504.19984) puts a private write-through L2 in between.

Coherence is the simple directory scheme the paper describes: every
line of the shared level has a directory entry naming the CPUs whose
private caches hold a copy; a write (as it drains through the write
buffer into the shared level) or a replacement there invalidates — or,
under ``MemConfig.l1_coherence = "update"``, refreshes — the other
copies. The private hierarchy is clean by construction, so both are
pure tag operations. Stores release the CPU in one cycle while a
per-CPU write buffer drains them into the shared banks — the resulting
port contention between write traffic and miss refills is exactly the
effect the paper blames for this architecture's loss on the OS
workload.

The shape is fixed when the system is built: each CPU's refill path is
a chain of one stage per deeper private level ending in the shared
level, and its store path touches the private levels through one
callable, so no access asks how many levels there are or which CPU it
is.
"""

from __future__ import annotations

from repro.mem.bank import Resource
from repro.mem.cache import MODIFIED, SHARED, CacheArray
from repro.mem.coherence.directory import Directory
from repro.mem.crossbar import build_crossbar, crossbar_resources
from repro.mem.hierarchy import MemConfig, MemorySystem
from repro.mem.types import AccessResult, StallLevel, new_result
from repro.sim.stats import SystemStats


class SharedSecondarySystem(MemorySystem):
    """Private write-through levels over a shared, banked, write-back
    level with a directory."""

    def __init__(
        self, topology, config: MemConfig, stats: SystemStats
    ) -> None:
        super().__init__(config, stats)
        *private, shared = self._scaffold(topology)
        if not private:
            self._reject("the", "levels", "need a private 'l1d' first")
        if len({level.name for level in topology.levels}) != len(private) + 1:
            self._reject("the", "levels", "must have distinct names")
        self._require_private_l1d(private[0])
        for level in private:
            where = f"level {level.name!r}"
            if level.arrays(config.n_cpus) != config.n_cpus:
                self._reject(where, "sharing", "must be 1 (private)")
            if level.write_policy != "writethrough":
                self._reject(where, "write_policy", "must be 'writethrough'")
            if level.banks != 1:
                self._reject(where, "banks", "must be 1 on a private level")
        where = f"level {shared.name!r}"
        if shared.arrays(config.n_cpus) != 1:
            self._reject(where, "sharing", "must cover every CPU")
        if shared.write_policy != "writeback":
            self._reject(where, "write_policy", "must be 'writeback'")
        line = config.line_size
        cpus = range(config.n_cpus)
        #: per private level: (spec, arrays, stats, ports); the L1 has
        #: no port (it is the single-cycle array the lanes probe)
        self._private = []
        for depth, level in enumerate(private):
            arrays, level_stats = self._per_cpu_caches(
                level.name, level.size, level.assoc
            )
            ports = (
                [Resource(f"cpu{i}.{level.name}.port") for i in cpus]
                if depth
                else []
            )
            self._private.append((level, arrays, level_stats, ports))
        self.l1d, self._l1d_stats = self._private[0][1:3]
        self._private_arrays = [entry[1] for entry in self._private]
        self.shared = CacheArray(
            f"shared.{shared.name}", shared.size, shared.assoc, line
        )
        self._shared_level = shared
        self._shared_stats = stats.cache(f"shared.{shared.name}")
        self.crossbar = build_crossbar(
            f"{shared.name}.xbar",
            shared,
            topology.interconnect,
            config.n_cpus,
            line,
        )
        self._link = self.crossbar
        self.directory = Directory()
        self.mem = self._main_memory()
        self._update = config.l1_coherence == "update"
        if not self._update:
            self._spin_ports = list(zip(self.l1d, self._l1d_stats))
        self._build_paths()

    def _resources(self, probing: bool = False):
        resources = [
            ("memory", "mem.busy", self.mem.banks),
            *crossbar_resources(self._shared_level.name, self.crossbar),
        ]
        for level, _arrays, _stats, ports in self._private[1:]:
            name = level.name
            resources += [
                (f"cpu{i}.{name}.port", f"cpu{i}.{name}.busy", port)
                for i, port in enumerate(ports)
            ]
        return resources

    def components(self) -> dict:
        """The scaffold's, plus every cache level under its spec name,
        the deeper private levels' ports and timing constants, the
        crossbar, directory, memory and write buffers."""
        out = {
            **super().components(),
            "_write_buffers": self._buffers,
            "crossbar": self.crossbar,
            "directory": self.directory,
            "mem": self.mem,
            self._shared_level.name: self.shared,
        }
        for level, arrays, _stats, ports in self._private:
            out[level.name] = arrays
            if ports:
                out[f"{level.name}_ports"] = ports
                out[f"_{level.name}_latency"] = level.latency
                out[f"_{level.name}_occupancy"] = level.occupancy
        return out

    # ------------------------------------------------------------------
    # Built paths. The shape is fixed here: what the shared level does
    # on a replacement, a write miss and a coherence walk is built once;
    # each CPU then gets its refill chain (one stage per deeper private
    # level ending in the shared level), its load path and its store
    # path. Victims are packed ``(line_addr << 2) | state``.

    def _build_paths(self) -> None:
        cpus = range(self.config.n_cpus)
        #: per CPU: the evict closure of each of its private arrays
        self._evictors = [
            tuple(arrays[cpu].make_evict() for arrays in self._private_arrays)
            for cpu in cpus
        ]
        self._shared_evicted = self._make_shared_eviction()
        self._shared_write_miss = self._make_shared_write_miss()
        self._invalidate_copies = self._make_invalidate_copies()
        self._refills = [self._make_refill(cpu) for cpu in cpus]
        super()._build_paths()

    def _make_shared_eviction(self):
        """``(victim, at)``: a shared-level replacement invalidates the
        private copies (inclusion) and writes dirty data to memory."""
        shared_stats = self._shared_stats
        clear_holders = self.directory.clear
        evictors = self._evictors
        write_back = self.mem.write_back
        shift = self._line_shift

        def shared_evicted(victim: int, at: int) -> None:
            shared_stats.evictions += 1
            victim_line = victim >> 2
            for cpu in clear_holders(victim_line):
                # Replacement-caused, not communication: classify later
                # misses on this line as replacement misses.
                for evict in evictors[cpu]:
                    evict(victim_line, False)
            if victim & 3 == MODIFIED:
                shared_stats.writebacks += 1
                write_back(victim_line << shift, at)

        return shared_evicted

    def _make_shared_write_miss(self):
        """``(addr, line_addr, ready) -> done``: write-allocate in the
        (write-back) shared level — fetch the line first."""
        shared_stats = self._shared_stats
        invalidated = self.shared.invalidated
        fill = self.shared.make_fill()
        read_memory = self.mem.access
        shared_evicted = self._shared_evicted

        def write_miss(addr: int, line_addr: int, ready: int) -> int:
            if line_addr in invalidated:
                shared_stats.write_misses_inval += 1
            else:
                shared_stats.write_misses_repl += 1
            done = read_memory(addr, ready)
            victim = fill(line_addr, MODIFIED)
            if victim >= 0:
                shared_evicted(victim, ready)
            return done

        return write_miss

    def _make_invalidate_copies(self):
        """``(victims, line_addr, writer, at)``: drop the line from
        every private level of each CPU in the ``victims`` bitmask (the
        directory already forgot them)."""
        evictors = self._evictors
        l1d_stats = self._l1d_stats
        observer = self._obs

        def invalidate_copies(
            victims: int, line_addr: int, writer: int, at: int
        ) -> None:
            other = 0
            while victims:
                if victims & 1:
                    hit = False
                    for evict in evictors[other]:
                        if evict(line_addr) >= 0:
                            hit = True
                    if hit:
                        l1d_stats[other].invalidations_received += 1
                        if observer[0] is not None:
                            observer[0].record_coherence(
                                other, "inval", at, {"by": writer}
                            )
                victims >>= 1
                other += 1

        return invalidate_copies

    def _make_holder_drop(self, cpu: int, levels: list):
        """``line_addr -> bool``: clear ``cpu``'s directory bit for the
        line unless one of its arrays in ``levels`` still caches it
        (the private levels are not inclusive of each other); returns
        whether the bit was cleared. A level that just replaced the
        line passes the *other* levels."""
        finders = tuple(arrays[cpu].make_find() for arrays in levels)
        remove_holder = self.directory.remove_holder

        def drop(line_addr: int) -> bool:
            for find in finders:
                if find(line_addr) >= 0:
                    return False
            remove_holder(line_addr, cpu)
            return True

        return drop

    def _make_refill(self, cpu: int):
        """``cpu``'s refill chain ``(addr, line_addr, at) -> (done,
        level)``, built from the far end: the shared level, then one
        stage per deeper private level in front of it."""
        shared_stats = self._shared_stats
        probe = self.shared.make_probe()
        fill = self.shared.make_fill()
        invalidated = self.shared.invalidated
        cross = self.crossbar.make_lane(cpu)
        read_memory = self.mem.access
        shared_evicted = self._shared_evicted
        hit, miss = StallLevel.L2, StallLevel.MEM

        def refill(addr: int, line_addr: int, at: int) -> tuple:
            ready = cross(addr, at)
            shared_stats.reads += 1
            if probe(line_addr) >= 0:
                return ready, hit
            if line_addr in invalidated:
                shared_stats.read_misses_inval += 1
            else:
                shared_stats.read_misses_repl += 1
            done = read_memory(addr, ready)
            victim = fill(line_addr, SHARED)
            if victim >= 0:
                shared_evicted(victim, ready)
            return done, miss

        for index in range(len(self._private) - 1, 0, -1):
            refill = self._make_refill_stage(cpu, index, refill)
        return refill

    def _make_refill_stage(self, cpu: int, index: int, beyond):
        """The refill stage of private level ``index`` (> 0): its port
        and latency are paid per access, its occupancy serializes
        refills; a miss goes ``beyond`` and fills on the way back."""
        level, arrays, level_stats, ports = self._private[index]
        latency = level.latency
        acquire_port = ports[cpu].make_acquire(level.occupancy)
        cache_stats = level_stats[cpu]
        probe = arrays[cpu].make_probe()
        fill = arrays[cpu].make_fill()
        invalidated = arrays[cpu].invalidated
        drop_victim = self._make_holder_drop(
            cpu, [a for a in self._private_arrays if a is not arrays]
        )
        hit = StallLevel.L2

        def refill(addr: int, line_addr: int, at: int) -> tuple:
            start = acquire_port(at)
            cache_stats.reads += 1
            if probe(line_addr) >= 0:
                return start + latency, hit
            if line_addr in invalidated:
                cache_stats.read_misses_inval += 1
            else:
                cache_stats.read_misses_repl += 1
            result = beyond(addr, line_addr, start + latency)
            victim = fill(line_addr, SHARED)
            if victim >= 0:
                cache_stats.evictions += 1
                drop_victim(victim >> 2)
            return result

        return refill

    def _make_ifetch_refill(self, cpu: int):
        # An I-miss takes the same chain (it just records no holder).
        return self._refills[cpu]

    def _make_load_path(self, cpu: int):
        cache = self.l1d[cpu]
        cache_stats = self._l1d_stats[cpu]
        probe = cache.make_probe()
        fill = cache.make_fill()
        invalidated = cache.invalidated
        holders = self.directory.masks
        holder_bit = 1 << cpu
        refill = self._refills[cpu]
        # An L1 victim stops its CPU being a holder unless a deeper
        # private level keeps the line.
        drop_victim = self._make_holder_drop(cpu, self._private_arrays[1:])
        shift = self._line_shift
        none = StallLevel.NONE

        def load(addr: int, at: int) -> AccessResult:
            cache_stats.reads += 1
            line_addr = addr >> shift
            at += 1
            if probe(line_addr) >= 0:
                return new_result(AccessResult, (at, none, -1))
            if line_addr in invalidated:
                cache_stats.read_misses_inval += 1
            else:
                cache_stats.read_misses_repl += 1
            holders[line_addr] = holders.get(line_addr, 0) | holder_bit
            done, level = refill(addr, line_addr, at)
            victim = fill(line_addr, SHARED)
            if victim >= 0:
                cache_stats.evictions += 1
                drop_victim(victim >> 2)
            return new_result(AccessResult, (done, level, -1))

        return load

    def _make_private_write(self, cpu: int):
        """``line_addr ->`` touch of ``cpu``'s private levels for one
        store: a resident copy is updated in place and stays valid (so
        its LRU stamp moves), a miss allocates nowhere. One level is
        the L1's own probe; more wrap it with the deeper levels'
        write counts and probes."""
        l1_probe = self.l1d[cpu].make_probe()
        deeper = [
            (level_stats[cpu], arrays[cpu].make_probe())
            for _level, arrays, level_stats, _ports in self._private[1:]
        ]
        if not deeper:
            return l1_probe

        def write_private(line_addr: int) -> None:
            l1_probe(line_addr)
            for level_stats, probe in deeper:
                level_stats.writes += 1
                probe(line_addr)

        return write_private

    def _make_update_copies(self, cpu: int):
        """``(addr, line_addr, at)``: write-update — sharers' copies
        (at every private level) are refreshed in place; the broadcast
        costs one word transfer on the writer's crossbar port per live
        sharer."""
        sharers = self.directory.holders
        drops = [
            self._make_holder_drop(other, self._private_arrays)
            for other in range(self.config.n_cpus)
        ]
        l1d_stats = self._l1d_stats
        cross_word = self.crossbar.make_lane(cpu, occupancy=1)
        observer = self._obs

        def update_copies(addr: int, line_addr: int, at: int) -> None:
            for other in sharers(line_addr, excluding=cpu):
                # A sharer that silently dropped the line stops being
                # updated (and being a holder).
                if drops[other](line_addr):
                    continue
                l1d_stats[other].updates_received += 1
                cross_word(addr, at)
                if observer[0] is not None:
                    observer[0].record_coherence(
                        other, "update", at, {"by": cpu}
                    )

        return update_copies

    def _make_store_path(self, cpu: int, posted: bool, lane: bool = False):
        """Write-through, no-allocate store via the per-CPU write buffer.

        The CPU is released after one cycle unless the buffer is full,
        in which case it waits for the oldest drain to finish. The value
        becomes visible to other CPUs when the drain reaches the shared
        level (``AccessResult.visible``). Store-conditionals are not
        ``posted`` — the CPU waits for the drain itself. Under
        write-through every store takes this path, so the fast ``lane``
        is the posted path itself, returning the release cycle as a
        plain int instead of a result.
        """
        l1d_stats = self._l1d_stats[cpu]
        write_private = self._make_private_write(cpu)
        # The drain is a word write — one cycle on the datapath; only a
        # write-allocate line fetch pays the full line-transfer
        # occupancy.
        cross_word = self.crossbar.make_lane(cpu, occupancy=1)
        shared_stats = self._shared_stats
        probe_modify = self.shared.make_probe_modify()
        write_miss = self._shared_write_miss
        update_copies = (
            self._make_update_copies(cpu) if self._update else None
        )
        holders = self.directory.masks
        others = ~(1 << cpu)
        invalidate_mask = self.directory.invalidate_for_write_mask
        invalidate_copies = self._invalidate_copies
        buffer = self._buffers[cpu]
        post = buffer.make_post()
        shift = self._line_shift
        none, storebuf = StallLevel.NONE, StallLevel.STOREBUF
        from_shared = StallLevel.L2

        def store(addr: int, at: int):
            l1d_stats.writes += 1
            l1d_stats.write_throughs += 1
            line_addr = addr >> shift
            write_private(line_addr)
            # The drain enters the shared level's pipeline now; only
            # the CPU is held back when the buffer is full.
            done = cross_word(addr, at)
            shared_stats.writes += 1
            if probe_modify(line_addr) < 0:
                done = write_miss(addr, line_addr, done)
            if update_copies is not None:
                update_copies(addr, line_addr, at)
            else:
                mask = holders.get(line_addr)
                if mask is not None and mask & others:
                    invalidate_copies(
                        invalidate_mask(line_addr, cpu), line_addr, cpu, at
                    )
            if lane:
                return post(at, done) + 1
            if not posted:
                return new_result(AccessResult, (done, from_shared, done))
            release = post(at, done)
            return new_result(
                AccessResult,
                (
                    release + 1,
                    storebuf if release > at else none,
                    buffer.last_visible,
                ),
            )

        return store

    def _make_store_lane(self, cpu: int):
        if self._update:
            # The write-update walk refreshes sharers in place and
            # charges crossbar word transfers; keep it on the one
            # general path.
            return super()._make_store_lane(cpu)
        return self._make_store_path(cpu, posted=True, lane=True)
