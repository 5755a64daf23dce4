"""The conventional bus-based shared-memory architecture — paper §2.4.

Each processor owns a full private hierarchy: single-cycle write-back
L1 caches and a full-speed private L2 (10-cycle latency, 2-cycle
occupancy). Communication happens only through the shared system bus:
a miss that leaves the L2 arbitrates for the bus and is serviced either
by main memory (50-cycle latency, 6-cycle occupancy) or — when another
processor holds the line dirty — by a cache-to-cache transfer that the
paper argues costs even more (">50 latency, >6 occupancy"), because all
snoopers must check their tags and the owner must fetch the data out of
an off-chip L2 that is busy with its own traffic.

Both cache levels keep full snoopy MESI coherence, with L2 inclusive of
L1 so the L2 tags can answer snoops for the pair.
"""

from __future__ import annotations

from repro.mem.bank import Resource
from repro.mem.bus import SnoopyBus
from repro.mem.cache import EXCLUSIVE, MODIFIED, SHARED, CacheArray
from repro.mem.coherence.mesi import SnoopController
from repro.mem.hierarchy import MemConfig, MemorySystem, count_miss
from repro.mem.types import AccessKind, AccessResult, StallLevel
from repro.mem.writebuffer import WriteBuffer
from repro.sim.stats import SystemStats


class SharedMemorySystem(MemorySystem):
    """Private L1+L2 per CPU over a snoopy MESI bus."""

    name = "shared-mem"

    def __init__(self, config: MemConfig, stats: SystemStats) -> None:
        super().__init__(config, stats)
        line = config.line_size
        n_cpus = config.n_cpus
        self.l1i = [
            CacheArray(f"cpu{i}.l1i", config.l1i_size, config.l1i_assoc, line)
            for i in range(n_cpus)
        ]
        self._l1i_stats = [stats.cache(f"cpu{i}.l1i") for i in range(n_cpus)]
        self.l1d = [
            CacheArray(f"cpu{i}.l1d", config.l1d_size, config.l1d_assoc, line)
            for i in range(n_cpus)
        ]
        self._l1d_stats = [stats.cache(f"cpu{i}.l1d") for i in range(n_cpus)]
        self.l2 = [
            CacheArray(f"cpu{i}.l2", config.l2_size, config.l2_assoc, line)
            for i in range(n_cpus)
        ]
        self._l2_stats = [stats.cache(f"cpu{i}.l2") for i in range(n_cpus)]
        self.l2_ports = [Resource(f"cpu{i}.l2.port") for i in range(n_cpus)]
        self.bus = SnoopyBus(config.bus)
        self.snoop = SnoopController(
            self.l1d, self.l2, self._l1d_stats, self._l2_stats
        )
        self._store_buffers = [
            WriteBuffer(config.write_buffer_depth) for _ in range(n_cpus)
        ]
        self._line_shift = self.l1d[0].line_shift
        self._build_lanes()

    def attach_obs(self, obs) -> None:
        """Wire the snoopy bus for per-transaction events."""
        super().attach_obs(obs)
        self.bus.obs = obs

    def obs_probes(self) -> list[tuple]:
        """Bus busy/transaction rates, private L2 port busy and
        write-buffer fill."""
        probes: list[tuple] = [
            ("rate", "bus.busy", lambda: self.bus.resource.busy_cycles),
            ("rate", "bus.transactions", lambda: self.bus.transactions),
            ("rate", "bus.wait", lambda: self.bus.resource.wait_cycles),
        ]
        for index, port in enumerate(self.l2_ports):
            probes.append(
                (
                    "rate",
                    f"cpu{index}.l2port.busy",
                    lambda p=port: p.busy_cycles,
                )
            )
        for index, buffer in enumerate(self._store_buffers):
            probes.append(
                ("gauge", f"cpu{index}.wb", lambda b=buffer: b.occupancy)
            )
        return probes

    def drain(self, at: int) -> int:
        """Completion time of everything still in the store buffers."""
        latest = at
        for buffer in self._store_buffers:
            t = buffer.drain_time(at)
            if t > latest:
                latest = t
        return latest

    def resource_report(self, cycles: int) -> dict[str, float]:
        """Busy fractions of the system bus and the private L2 ports."""
        report = {"bus": self.bus.resource.utilization(cycles)}
        for index, port in enumerate(self.l2_ports):
            report[f"cpu{index}.l2.port"] = port.utilization(cycles)
        return report

    # ------------------------------------------------------------------

    def access(
        self, cpu: int, kind: AccessKind, addr: int, at: int
    ) -> AccessResult:
        """Dispatch one access through the bus-based request paths."""
        if kind == AccessKind.IFETCH:
            return self._ifetch(cpu, addr, at)
        if kind == AccessKind.LOAD:
            return self._load(cpu, addr, at)
        return self._store(cpu, addr, at, posted=kind == AccessKind.STORE)

    # ------------------------------------------------------------------
    # L1 hit fast lane: private single-cycle L1s, so a hit is a packed
    # tag probe + LRU stamp (+ the read counter on the data side).
    # Loads never change MESI state on a hit, so the lane is
    # state-blind; a miss returns -1 with nothing touched. The lanes
    # are per-CPU closures with the probe constants captured as cell
    # variables (see MemorySystem.fast_lanes).

    def _build_lanes(self) -> None:
        n_cpus = self.config.n_cpus
        self._lane_ifetch = [self._make_ifetch_lane(c) for c in range(n_cpus)]
        self._lane_load = [self._make_load_lane(c) for c in range(n_cpus)]
        self._lane_store = [self._make_store_lane(c) for c in range(n_cpus)]

    def _make_ifetch_lane(self, cpu: int):
        probe = self.l1i[cpu].make_probe()
        shift = self._line_shift

        def fast_ifetch(addr: int, at: int) -> int:
            if probe(addr >> shift) < 0:
                return -1
            return at + 1

        return fast_ifetch

    def _make_load_lane(self, cpu: int):
        probe = self.l1d[cpu].make_probe()
        stats = self._l1d_stats[cpu]
        shift = self._line_shift

        def fast_load(addr: int, at: int) -> int:
            if probe(addr >> shift) < 0:
                return -1
            stats.reads += 1
            return at + 1

        return fast_load

    def _make_store_lane(self, cpu: int):
        # Only an already-MODIFIED line may absorb a posted store
        # without a transaction (E/S states need upgrades).
        probe_dirty = self.l1d[cpu].make_probe_dirty()
        stats = self._l1d_stats[cpu]
        buffer = self._store_buffers[cpu]
        shift = self._line_shift

        def fast_store(addr: int, at: int) -> int:
            if not probe_dirty(addr >> shift):
                return -1
            stats.writes += 1
            release, _stalled = buffer.admit(at)
            buffer.push(at + 1)
            return release + 1

        return fast_store

    def fast_lanes(self, cpu):
        """Specialized per-CPU closures (see the base class)."""
        return (
            self._lane_ifetch[cpu],
            self._lane_load[cpu],
            self._lane_store[cpu],
        )

    def spin_port(self, cpu: int):
        """The private write-back L1D (loads are MESI-state-blind)."""
        return self.l1d[cpu], self._l1d_stats[cpu]

    def fast_load(self, cpu: int, addr: int, at: int) -> int:
        """Private write-back L1D hit (single cycle); -1 on miss."""
        return self._lane_load[cpu](addr, at)

    def fast_ifetch(self, cpu: int, addr: int, at: int) -> int:
        """Private I-cache hit (single cycle); -1 on miss."""
        return self._lane_ifetch[cpu](addr, at)

    def fast_store(self, cpu: int, addr: int, at: int) -> int:
        """Posted store hitting an already-MODIFIED private L1 line;
        -1 otherwise (E/S states need upgrades — general path)."""
        return self._lane_store[cpu](addr, at)

    # ------------------------------------------------------------------

    def _ifetch(self, cpu: int, addr: int, at: int) -> AccessResult:
        cache = self.l1i[cpu]
        line_addr = addr >> self._line_shift
        if cache.probe(line_addr) >= 0:
            return AccessResult(at + 1, StallLevel.NONE)
        self._l1i_stats[cpu].read_misses_repl += 1
        start = self.l2_ports[cpu].acquire(at + 1, self.config.l2_occupancy)
        self._l2_stats[cpu].reads += 1
        l2 = self.l2[cpu]
        if l2.probe(line_addr) >= 0:
            done = start + self.config.l2_latency
            level = StallLevel.L2
        else:
            miss_kind = l2.classify_line(line_addr)
            count_miss(self._l2_stats[cpu], miss_kind, is_store=False)
            done = self.bus.memory_read(start + self.config.l2_latency)
            victim = l2.fill(line_addr, SHARED)
            if victim >= 0:
                self._handle_l2_eviction(cpu, victim, start)
            level = StallLevel.MEM
        cache.fill(line_addr, SHARED)
        return AccessResult(done, level)

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

        config = self.config
        start = self.l2_ports[cpu].acquire(at + 1, config.l2_occupancy)
        self._l2_stats[cpu].reads += 1
        l2 = self.l2[cpu]
        l2_state = l2.probe(line_addr)
        if l2_state >= 0:
            done = start + config.l2_latency
            level = StallLevel.L2
            l1_state = SHARED if l2_state == SHARED else EXCLUSIVE
        else:
            l2_miss = l2.classify_line(line_addr)
            count_miss(self._l2_stats[cpu], l2_miss, is_store=False)
            bus_at = start + config.l2_latency
            remote_copy = self.snoop.any_remote_copy(cpu, line_addr)
            source = self.snoop.snoop_read(cpu, line_addr)
            if source == "c2c":
                done = self.bus.cache_to_cache(bus_at)
                level = StallLevel.C2C
                self.stats.c2c_transfers += 1
                l1_state = SHARED
            else:
                done = self.bus.memory_read(bus_at)
                level = StallLevel.MEM
                l1_state = SHARED if remote_copy else EXCLUSIVE
            victim = l2.fill(line_addr, l1_state)
            if victim >= 0:
                self._handle_l2_eviction(cpu, victim, bus_at)

        victim = cache.fill(line_addr, l1_state)
        if victim >= 0:
            self._handle_l1_eviction(cpu, victim, at + 1)
        return AccessResult(done, level)

    # ------------------------------------------------------------------

    def _store(
        self, cpu: int, addr: int, at: int, posted: bool
    ) -> AccessResult:
        """Stores post through the write buffer; SCs wait out the path."""
        self._l1d_stats[cpu].writes += 1
        if not posted:
            done, level = self._store_path(cpu, addr, at)
            return AccessResult(done, level)
        buffer = self._store_buffers[cpu]
        release, stalled = buffer.admit(at)
        # The drain enters the memory pipeline now; only the CPU is
        # held back when the buffer is full.
        complete, _level = self._store_path(cpu, addr, at)
        visible = buffer.push(complete)
        level = StallLevel.STOREBUF if stalled else StallLevel.NONE
        return AccessResult(release + 1, level, visible=visible)

    def _store_path(
        self, cpu: int, addr: int, at: int
    ) -> tuple[int, StallLevel]:
        cache = self.l1d[cpu]
        cache_stats = self._l1d_stats[cpu]
        config = self.config
        line_addr = addr >> self._line_shift

        state = cache.probe(line_addr)
        if state >= 0:
            if state == MODIFIED:
                return at + 1, StallLevel.NONE
            if state == EXCLUSIVE:
                # Silent E->M upgrade; mirror ownership into the L2 so
                # snoops (which check the L2 tags) see the dirty line.
                cache.set_state(line_addr, MODIFIED)
                self.l2[cpu].set_state(line_addr, MODIFIED)
                return at + 1, StallLevel.NONE
            # SHARED: invalidate-only bus transaction.
            done = self.bus.upgrade(at + 1)
            self.snoop.upgrade(cpu, line_addr)
            if self.obs is not None:
                self.obs.record_coherence(cpu, "upgrade", at + 1)
            cache.set_state(line_addr, MODIFIED)
            self.l2[cpu].set_state(line_addr, MODIFIED)
            return done, StallLevel.MEM

        miss_kind = cache.classify_line(line_addr)
        count_miss(cache_stats, miss_kind, is_store=True)

        start = self.l2_ports[cpu].acquire(at + 1, config.l2_occupancy)
        self._l2_stats[cpu].writes += 1
        l2 = self.l2[cpu]
        l2_state = l2.probe(line_addr)
        if l2_state >= 0:
            if l2_state == SHARED:
                done = self.bus.upgrade(start + config.l2_latency)
                self.snoop.upgrade(cpu, line_addr)
                if self.obs is not None:
                    self.obs.record_coherence(
                        cpu, "upgrade", start + config.l2_latency
                    )
                level = StallLevel.MEM
            else:
                done = start + config.l2_latency
                level = StallLevel.L2
            l2.set_state(line_addr, MODIFIED)
        else:
            l2_miss = l2.classify_line(line_addr)
            count_miss(self._l2_stats[cpu], l2_miss, is_store=True)
            bus_at = start + config.l2_latency
            source = self.snoop.snoop_write(cpu, line_addr)
            if self.obs is not None:
                self.obs.record_coherence(
                    cpu, "rfo", bus_at, {"source": source}
                )
            if source == "c2c":
                done = self.bus.cache_to_cache(bus_at)
                level = StallLevel.C2C
                self.stats.c2c_transfers += 1
            else:
                done = self.bus.memory_read(bus_at)
                level = StallLevel.MEM
            victim = l2.fill(line_addr, MODIFIED)
            if victim >= 0:
                self._handle_l2_eviction(cpu, victim, bus_at)

        victim = cache.fill(line_addr, MODIFIED)
        if victim >= 0:
            self._handle_l1_eviction(cpu, victim, at + 1)
        return done, level

    # ------------------------------------------------------------------

    def _handle_l1_eviction(self, cpu: int, victim: int, at: int) -> None:
        """A dirty L1 victim writes back into the (inclusive) L2.

        ``victim`` is packed ``(line_addr << 2) | state``.
        """
        self._l1d_stats[cpu].evictions += 1
        if victim & 3 != MODIFIED:
            return
        self._l1d_stats[cpu].writebacks += 1
        self.l2_ports[cpu].acquire(at, self.config.l2_occupancy)
        # Inclusion guarantees the line is present; ownership is already
        # MODIFIED there (mirrored at write time).
        self.l2[cpu].set_state(victim >> 2, MODIFIED)

    def _handle_l2_eviction(self, cpu: int, victim: int, at: int) -> None:
        """L2 replacement: enforce inclusion, write back dirty data.

        ``victim`` is packed ``(line_addr << 2) | state``.
        """
        self._l2_stats[cpu].evictions += 1
        dirty = victim & 3 == MODIFIED
        l1_state = self.l1d[cpu].evict(victim >> 2, coherence=False)
        if l1_state == MODIFIED:
            dirty = True
        # Instruction lines are read-only: the I-cache is exempt from
        # inclusion (no snoop will ever need its contents).
        if dirty:
            self._l2_stats[cpu].writebacks += 1
            self.bus.write_back(at)
