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

The shape is fixed when the system is built: the refill path is a
chain of one stage per deeper private level ending in the shared level,
and the store paths touch the private levels through one per-CPU
callable, so no access asks how many levels there are.
"""

from __future__ import annotations

from repro.mem.bank import Resource
from repro.mem.cache import MODIFIED, SHARED, CacheArray
from repro.mem.coherence.directory import Directory
from repro.mem.crossbar import build_crossbar, crossbar_resources
from repro.mem.hierarchy import MemConfig, MemorySystem, count_miss
from repro.mem.types import AccessResult, StallLevel
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
        # An L1 victim stops its CPU being a holder — outright when the
        # L1 is the only private level, else unless a deeper one keeps
        # the line.
        below_l1 = self._private_arrays[1:]
        self._drop_l1_victim = (
            (
                lambda line_addr, cpu: self._drop_holder_unless_held(
                    cpu, line_addr, below_l1
                )
            )
            if below_l1
            else self.directory.remove_holder
        )
        self.mem = self._main_memory()
        self._update = config.l1_coherence == "update"
        if not self._update:
            self._spin_ports = list(zip(self.l1d, self._l1d_stats))
        # The refill chain, built from the far end: the shared level,
        # then one stage per deeper private level in front of it.
        self._refill = self._shared_read
        for index in range(len(self._private) - 1, 0, -1):
            self._refill = self._make_refill_stage(index, self._refill)
        # An I-miss takes the same chain (it just records no holder).
        self._refill_ifetch = self._refill
        self._write_private = [self._make_private_write(c) for c in cpus]
        self._build_lanes()

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
    # Fast lanes. Loads and I-fetches resolve single-cycle private L1
    # hits (the scaffold's lanes). The *store* lane covers the whole
    # write-through path for posted value-less stores — private-level
    # touches, buffer admission, the drain into the shared level,
    # directory invalidations — because under write-through every store
    # takes it; it must mirror _store(posted=True) exactly (the
    # differential suite runs with the lane off and asserts identical
    # stats).

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

    def _make_store_lane(self, cpu: int):
        if self._update:
            # The write-update walk refreshes sharers in place and
            # charges crossbar word transfers; keep it on the one
            # general path.
            return super()._make_store_lane(cpu)
        shift = self._line_shift
        l1d_stats = self._l1d_stats[cpu]
        write_private = self._write_private[cpu]
        buffer_admit = self._buffers[cpu].admit
        buffer_push = self._buffers[cpu].push
        shared_probe_modify = self.shared.make_probe_modify()
        shared_stats = self._shared_stats
        xbar_lane = self.crossbar.make_lane(cpu, occupancy=1)
        invalidate_mask = self.directory.invalidate_for_write_mask
        write_miss = self._shared_write_miss
        invalidate_copies = self._invalidate_copies

        def fast_store(addr: int, at: int) -> int:
            l1d_stats.writes += 1
            l1d_stats.write_throughs += 1
            line_addr = addr >> shift
            write_private(line_addr)
            release, _stalled = buffer_admit(at)
            # The drain enters the shared level's pipeline now; only
            # the CPU is held back when the buffer is full.
            ready = xbar_lane(addr, at)
            shared_stats.writes += 1
            if shared_probe_modify(line_addr) >= 0:
                drain_done = ready
            else:
                drain_done = write_miss(addr, line_addr, ready)
            victims = invalidate_mask(line_addr, cpu)
            if victims:
                invalidate_copies(victims, line_addr, cpu, at)
            buffer_push(drain_done)
            return release + 1

        return fast_store

    # ------------------------------------------------------------------

    def _load(self, cpu: int, addr: int, at: int) -> AccessResult:
        cache = self.l1d[cpu]
        cache_stats = self._l1d_stats[cpu]
        cache_stats.reads += 1
        line_addr = addr >> self._line_shift
        if cache.probe(line_addr) >= 0:
            return AccessResult(at + 1, StallLevel.NONE)

        miss_kind = cache.classify_line(line_addr)
        count_miss(cache_stats, miss_kind, is_store=False)
        self.directory.add_holder(line_addr, cpu)
        done, level = self._refill(cpu, addr, line_addr, at + 1)
        victim = cache.fill(line_addr, SHARED)
        if victim >= 0:
            cache_stats.evictions += 1
            self._drop_l1_victim(victim >> 2, cpu)
        return AccessResult(done, level)

    def _store(
        self, cpu: int, addr: int, at: int, posted: bool
    ) -> AccessResult:
        """Write-through, no-allocate store via the per-CPU write buffer.

        The CPU is released after one cycle unless the buffer is full,
        in which case it waits for the oldest drain to finish. The value
        becomes visible to other CPUs when the drain reaches the shared
        level (``AccessResult.visible``). Store-conditionals are not
        posted — the CPU waits for the drain itself.
        """
        cache_stats = self._l1d_stats[cpu]
        cache_stats.writes += 1
        cache_stats.write_throughs += 1
        line_addr = addr >> self._line_shift
        self._write_private[cpu](line_addr)

        if posted:
            release, stalled = self._buffers[cpu].admit(at)
        else:
            release, stalled = at, False
        # The drain enters the shared level's pipeline now; only the
        # CPU is held back when the buffer is full. It is a word write —
        # one cycle on the datapath; only a write-allocate line fetch
        # pays the full line-transfer occupancy.
        ready, _wait = self.crossbar.access(addr, at, port=cpu, occupancy=1)
        self._shared_stats.writes += 1
        if self.shared.probe_modify(line_addr) >= 0:
            drain_done = ready
        else:
            drain_done = self._shared_write_miss(addr, line_addr, ready)

        if self._update:
            self._update_copies(addr, line_addr, cpu, at)
        else:
            victims = self.directory.invalidate_for_write_mask(line_addr, cpu)
            if victims:
                self._invalidate_copies(victims, line_addr, cpu, at)

        if not posted:
            return AccessResult(drain_done, StallLevel.L2, visible=drain_done)
        visible = self._buffers[cpu].push(drain_done)
        level = StallLevel.STOREBUF if stalled else StallLevel.NONE
        return AccessResult(release + 1, level, visible=visible)

    def _invalidate_copies(
        self, victims: int, line_addr: int, writer: int, at: int
    ) -> None:
        """Drop the line from every private level of each CPU in the
        ``victims`` bitmask (the directory already forgot them)."""
        other = 0
        while victims:
            if victims & 1:
                hit = False
                for arrays in self._private_arrays:
                    if arrays[other].evict(line_addr) >= 0:
                        hit = True
                if hit:
                    self._l1d_stats[other].invalidations_received += 1
                    if self.obs is not None:
                        self.obs.record_coherence(
                            other, "inval", at, {"by": writer}
                        )
            victims >>= 1
            other += 1

    def _update_copies(
        self, addr: int, line_addr: int, writer: int, at: int
    ) -> None:
        """Write-update: sharers' copies (at every private level) are
        refreshed in place; the broadcast costs one word transfer on
        the writer's crossbar port per live sharer."""
        for other in self.directory.holders(line_addr, excluding=writer):
            # A sharer that silently dropped the line stops being
            # updated (and being a holder).
            if self._drop_holder_unless_held(
                other, line_addr, self._private_arrays
            ):
                continue
            self._l1d_stats[other].updates_received += 1
            self.crossbar.access(addr, at, port=writer, occupancy=1)
            if self.obs is not None:
                self.obs.record_coherence(other, "update", at, {"by": writer})

    def _drop_holder_unless_held(
        self, cpu: int, line_addr: int, levels: list
    ) -> bool:
        """Clear ``cpu``'s directory bit for the line unless one of its
        arrays in ``levels`` still caches it (the private levels are not
        inclusive of each other); returns whether the bit was cleared.
        A level that just replaced the line passes the *other* levels."""
        for arrays in levels:
            if arrays[cpu].probe_quiet(line_addr) >= 0:
                return False
        self.directory.remove_holder(line_addr, cpu)
        return True

    # ------------------------------------------------------------------

    def _make_refill_stage(self, index: int, beyond):
        """The refill stage of private level ``index`` (> 0): its port
        and latency are paid per access, its occupancy serializes
        refills; a miss goes ``beyond`` and fills on the way back."""
        level, arrays, level_stats, ports = self._private[index]
        latency, occupancy = level.latency, level.occupancy
        elsewhere = [a for a in self._private_arrays if a is not arrays]

        def refill(
            cpu: int, addr: int, line_addr: int, at: int
        ) -> tuple[int, StallLevel]:
            start = ports[cpu].acquire(at, occupancy)
            cache = arrays[cpu]
            cache_stats = level_stats[cpu]
            cache_stats.reads += 1
            if cache.probe(line_addr) >= 0:
                return start + latency, StallLevel.L2
            miss_kind = cache.classify_line(line_addr)
            count_miss(cache_stats, miss_kind, is_store=False)
            done, serving = beyond(cpu, addr, line_addr, start + latency)
            victim = cache.fill(line_addr, SHARED)
            if victim >= 0:
                cache_stats.evictions += 1
                self._drop_holder_unless_held(cpu, victim >> 2, elsewhere)
            return done, serving

        return refill

    def _shared_read(
        self, cpu: int, addr: int, line_addr: int, at: int
    ) -> tuple[int, StallLevel]:
        """Refill path through the shared level's banks."""
        ready, _wait = self.crossbar.access(addr, at, port=cpu)
        self._shared_stats.reads += 1
        if self.shared.probe(line_addr) >= 0:
            return ready, StallLevel.L2
        miss_kind = self.shared.classify_line(line_addr)
        count_miss(self._shared_stats, miss_kind, is_store=False)
        done = self.mem.access(addr, ready)
        victim = self.shared.fill(line_addr, SHARED)
        if victim >= 0:
            self._handle_shared_eviction(victim, ready)
        return done, StallLevel.MEM

    def _shared_write_miss(
        self, addr: int, line_addr: int, ready: int
    ) -> int:
        """Write-allocate in the (write-back) shared level: fetch the
        line first."""
        miss_kind = self.shared.classify_line(line_addr)
        count_miss(self._shared_stats, miss_kind, is_store=True)
        done = self.mem.access(addr, ready)
        victim = self.shared.fill(line_addr, MODIFIED)
        if victim >= 0:
            self._handle_shared_eviction(victim, ready)
        return done

    def _handle_shared_eviction(self, victim: int, at: int) -> None:
        """Shared-level replacement: invalidate private copies
        (inclusion) and write dirty data to memory.

        ``victim`` is packed ``(line_addr << 2) | state``.
        """
        self._shared_stats.evictions += 1
        victim_line = victim >> 2
        for cpu in self.directory.clear(victim_line):
            # Replacement-caused, not communication: classify later
            # misses on this line as replacement misses.
            for arrays in self._private_arrays:
                arrays[cpu].evict(victim_line, coherence=False)
        if victim & 3 == MODIFIED:
            self._shared_stats.writebacks += 1
            self.mem.write_back(victim_line << self._line_shift, at)
