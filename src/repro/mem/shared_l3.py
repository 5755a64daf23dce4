"""The 3-level shared-L3 topology (3D-stacked point, arXiv 2504.19984).

Each CPU keeps a private, single-cycle, write-through L1 pair *and* a
private write-through L2; all CPUs share a banked, write-back L3
behind a crossbar. The stacked L3 sits at its own latency/bandwidth
point (``MemConfig.l3_*``) between the private hierarchies and main
memory.

Coherence is the same simple directory scheme as the shared-secondary
architecture, lifted one level: every L3 line has a directory entry
naming the CPUs whose private caches hold a copy; a write draining
into the L3 or an L3 replacement invalidates the other copies (both
private levels — the private hierarchy is clean by construction, so
invalidation is a pure tag operation). Stores release the CPU in one
cycle while a per-CPU write buffer drains them through to the L3.
"""

from __future__ import annotations

from repro.mem.bank import Resource
from repro.mem.cache import MODIFIED, SHARED, CacheArray
from repro.mem.coherence.directory import Directory
from repro.mem.crossbar import Crossbar
from repro.mem.hierarchy import MemConfig, MemorySystem, count_miss
from repro.mem.mainmem import MainMemory
from repro.mem.types import AccessKind, AccessResult, StallLevel
from repro.mem.writebuffer import WriteBuffer
from repro.sim.stats import SystemStats


class SharedL3System(MemorySystem):
    """Private write-through L1+L2 per CPU over a shared banked L3."""

    name = "shared-l3"

    def __init__(
        self, topology, config: MemConfig, stats: SystemStats
    ) -> None:
        super().__init__(config, stats)
        self.topology = topology
        line = config.line_size
        n_cpus = config.n_cpus
        l2_level = topology.level("l2")
        l3_level = topology.level("l3")
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
            CacheArray(f"cpu{i}.l2", l2_level.size, l2_level.assoc, line)
            for i in range(n_cpus)
        ]
        self._l2_stats = [stats.cache(f"cpu{i}.l2") for i in range(n_cpus)]
        # Private L2 access port: the level's latency is paid per
        # access and its occupancy serializes refills with drains.
        self.l2_ports = [
            Resource(f"cpu{i}.l2.port") for i in range(n_cpus)
        ]
        self._l2_latency = l2_level.latency
        self._l2_occupancy = l2_level.occupancy
        self.l3 = CacheArray("shared.l3", l3_level.size, l3_level.assoc, line)
        self._l3_stats = stats.cache("shared.l3")
        self.crossbar = Crossbar(
            "l3.xbar",
            l3_level.banks,
            line,
            latency=l3_level.latency,
            occupancy=l3_level.occupancy,
            n_ports=n_cpus,
        )
        self.directory = Directory()
        self.mem = MainMemory(
            config.mem_latency,
            config.mem_occupancy,
            config.n_mem_banks,
            line,
        )
        self._write_buffers = [
            WriteBuffer(config.write_buffer_depth) for _ in range(n_cpus)
        ]
        self._line_shift = self.l3.line_shift
        self._build_lanes()

    def attach_obs(self, obs) -> None:
        """Wire the L3 crossbar for conflict events."""
        super().attach_obs(obs)
        self.crossbar.obs = obs

    def obs_probes(self) -> list[tuple]:
        """Crossbar grants/conflicts, per-bank/per-port busy, private
        L2 port busy, memory busy and write-buffer fill."""
        probes: list[tuple] = [
            ("rate", "l3.xbar.grants", lambda: self.crossbar.requests),
            ("rate", "l3.xbar.conflict", lambda: self.crossbar.wait_cycles),
            ("rate", "mem.busy", lambda: self.mem.banks.busy_cycles),
        ]
        for index, bank in enumerate(self.crossbar.banks.banks):
            probes.append(
                ("rate", f"l3.bank{index}.busy", lambda b=bank: b.busy_cycles)
            )
        for index, port in enumerate(self.l2_ports):
            probes.append(
                (
                    "rate",
                    f"cpu{index}.l2.busy",
                    lambda p=port: p.busy_cycles,
                )
            )
        for index, buffer in enumerate(self._write_buffers):
            probes.append(
                ("gauge", f"cpu{index}.wb", lambda b=buffer: b.occupancy)
            )
        return probes

    # ------------------------------------------------------------------

    def access(
        self, cpu: int, kind: AccessKind, addr: int, at: int
    ) -> AccessResult:
        """Dispatch one access through the three-level request paths."""
        if kind == AccessKind.IFETCH:
            return self._ifetch(cpu, addr, at)
        if kind == AccessKind.LOAD:
            return self._load(cpu, addr, at)
        return self._store(cpu, addr, at, posted=kind == AccessKind.STORE)

    # ------------------------------------------------------------------
    # Fast lanes. Loads and I-fetches resolve single-cycle private L1
    # hits. The store lane covers the whole write-through path for
    # posted value-less stores (this topology always runs directory
    # invalidation, so there is no coherence-mode gate); it must mirror
    # _store(posted=True) exactly.

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
        shift = self._line_shift
        l1_probe = self.l1d[cpu].make_probe()
        l2_probe = self.l2[cpu].make_probe()
        l1d_stats = self._l1d_stats[cpu]
        l2_stats = self._l2_stats[cpu]
        all_l1ds = self.l1d
        all_l2s = self.l2
        all_l1d_stats = self._l1d_stats
        buffer_admit = self._write_buffers[cpu].admit
        buffer_push = self._write_buffers[cpu].push
        l3_probe_modify = self.l3.make_probe_modify()
        l3_stats = self._l3_stats
        xbar_lane = self.crossbar.make_lane(cpu, occupancy=1)
        invalidate_mask = self.directory.invalidate_for_write_mask
        system = self

        def fast_store(addr: int, at: int) -> int:
            l1d_stats.writes += 1
            l1d_stats.write_throughs += 1
            line_addr = addr >> shift
            l1_probe(line_addr)
            l2_stats.writes += 1
            l2_probe(line_addr)
            release, _stalled = buffer_admit(at)
            ready = xbar_lane(addr, at)
            l3_stats.writes += 1
            if l3_probe_modify(line_addr) >= 0:
                drain_done = ready
            else:
                drain_done = system._l3_write_miss(addr, line_addr, ready)
            victims = invalidate_mask(line_addr, cpu)
            if victims:
                other = 0
                while victims:
                    if victims & 1:
                        hit = all_l1ds[other].evict(line_addr) >= 0
                        if all_l2s[other].evict(line_addr) >= 0:
                            hit = True
                        if hit:
                            all_l1d_stats[other].invalidations_received += 1
                            if system.obs is not None:
                                system.obs.record_coherence(
                                    other, "inval", at, {"by": cpu}
                                )
                    victims >>= 1
                    other += 1
            buffer_push(drain_done)
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
        """The private L1D (this topology always invalidates)."""
        return self.l1d[cpu], self._l1d_stats[cpu]

    def fast_load(self, cpu: int, addr: int, at: int) -> int:
        """Private write-through L1D hit (single cycle); -1 on miss."""
        return self._lane_load[cpu](addr, at)

    def fast_ifetch(self, cpu: int, addr: int, at: int) -> int:
        """Private I-cache hit (single cycle); -1 on miss."""
        return self._lane_ifetch[cpu](addr, at)

    def fast_store(self, cpu: int, addr: int, at: int) -> int:
        """Posted value-less store through the write-through path."""
        return self._lane_store[cpu](addr, at)

    # ------------------------------------------------------------------

    def _ifetch(self, cpu: int, addr: int, at: int) -> AccessResult:
        cache = self.l1i[cpu]
        line_addr = addr >> self._line_shift
        if cache.probe(line_addr) >= 0:
            return AccessResult(at + 1, StallLevel.NONE)
        self._l1i_stats[cpu].read_misses_repl += 1
        done, level = self._refill(cpu, addr, at + 1, track_holder=False)
        cache.fill(line_addr, SHARED)
        return AccessResult(done, level)

    def _load(self, cpu: int, addr: int, at: int) -> AccessResult:
        cache = self.l1d[cpu]
        cache_stats = self._l1d_stats[cpu]
        cache_stats.reads += 1
        line_addr = addr >> self._line_shift
        if cache.probe(line_addr) >= 0:
            return AccessResult(at + 1, StallLevel.NONE)

        miss_kind = cache.classify_line(line_addr)
        count_miss(cache_stats, miss_kind, is_store=False)
        done, level = self._refill(cpu, addr, at + 1, track_holder=True)
        victim = cache.fill(line_addr, SHARED)
        if victim >= 0:
            cache_stats.evictions += 1
            self._drop_holder_if_gone(cpu, victim >> 2)
        return AccessResult(done, level)

    def _store(
        self, cpu: int, addr: int, at: int, posted: bool
    ) -> AccessResult:
        """Write-through, no-allocate store via the per-CPU write buffer.

        Both private levels are write-through: a resident copy is
        updated in place, a miss allocates nowhere, and the drain goes
        all the way to the L3 (word-sized on the crossbar).
        """
        cache_stats = self._l1d_stats[cpu]
        cache_stats.writes += 1
        cache_stats.write_throughs += 1
        line_addr = addr >> self._line_shift
        self.l1d[cpu].probe(line_addr)
        l2_stats = self._l2_stats[cpu]
        l2_stats.writes += 1
        self.l2[cpu].probe(line_addr)

        if posted:
            release, stalled = self._write_buffers[cpu].admit(at)
        else:
            release, stalled = at, False
        drain_done = self._l3_write_drain(cpu, addr, at)

        victims = self.directory.invalidate_for_write_mask(line_addr, cpu)
        other = 0
        while victims:
            if victims & 1:
                hit = self.l1d[other].evict(line_addr) >= 0
                if self.l2[other].evict(line_addr) >= 0:
                    hit = True
                if hit:
                    self._l1d_stats[other].invalidations_received += 1
                    if self.obs is not None:
                        self.obs.record_coherence(
                            other, "inval", at, {"by": cpu}
                        )
            victims >>= 1
            other += 1

        if not posted:
            return AccessResult(drain_done, StallLevel.L2, visible=drain_done)
        visible = self._write_buffers[cpu].push(drain_done)
        level = StallLevel.STOREBUF if stalled else StallLevel.NONE
        return AccessResult(release + 1, level, visible=visible)

    # ------------------------------------------------------------------

    def _refill(
        self, cpu: int, addr: int, at: int, track_holder: bool
    ) -> tuple[int, StallLevel]:
        """L1 miss refill: private L2, then the shared L3, then memory."""
        port_start = self.l2_ports[cpu].acquire(at, self._l2_occupancy)
        l2 = self.l2[cpu]
        l2_stats = self._l2_stats[cpu]
        l2_stats.reads += 1
        line_addr = addr >> self._line_shift
        if track_holder:
            self.directory.add_holder(line_addr, cpu)
        if l2.probe(line_addr) >= 0:
            return port_start + self._l2_latency, StallLevel.L2
        miss_kind = l2.classify_line(line_addr)
        count_miss(l2_stats, miss_kind, is_store=False)
        done, level = self._l3_read(cpu, addr, port_start + self._l2_latency)
        victim = l2.fill(line_addr, SHARED)
        if victim >= 0:
            l2_stats.evictions += 1
            self._drop_holder_if_gone(cpu, victim >> 2)
        return done, level

    def _drop_holder_if_gone(self, cpu: int, line_addr: int) -> None:
        """Clear the directory bit once neither private level holds the
        line (the two levels are not inclusive of each other)."""
        if self.l1d[cpu].probe_quiet(line_addr) >= 0:
            return
        if self.l2[cpu].probe_quiet(line_addr) >= 0:
            return
        self.directory.remove_holder(line_addr, cpu)

    def _l3_read(
        self, cpu: int, addr: int, at: int
    ) -> tuple[int, StallLevel]:
        """Refill path through the shared L3 banks."""
        ready, _wait = self.crossbar.access(addr, at, port=cpu)
        self._l3_stats.reads += 1
        line_addr = addr >> self._line_shift
        if self.l3.probe(line_addr) >= 0:
            return ready, StallLevel.L2
        miss_kind = self.l3.classify_line(line_addr)
        count_miss(self._l3_stats, miss_kind, is_store=False)
        done = self.mem.access(addr, ready)
        victim = self.l3.fill(line_addr, SHARED)
        if victim >= 0:
            self._handle_l3_eviction(victim, ready)
        return done, StallLevel.MEM

    def _l3_write_drain(self, cpu: int, addr: int, at: int) -> int:
        """One write-buffer entry draining into its L3 bank."""
        ready, _wait = self.crossbar.access(addr, at, port=cpu, occupancy=1)
        self._l3_stats.writes += 1
        line_addr = addr >> self._line_shift
        if self.l3.probe_modify(line_addr) >= 0:
            return ready
        return self._l3_write_miss(addr, line_addr, ready)

    def _l3_write_miss(self, addr: int, line_addr: int, ready: int) -> int:
        """Write-allocate in the (write-back) L3: fetch the line first."""
        miss_kind = self.l3.classify_line(line_addr)
        count_miss(self._l3_stats, miss_kind, is_store=True)
        done = self.mem.access(addr, ready)
        victim = self.l3.fill(line_addr, MODIFIED)
        if victim >= 0:
            self._handle_l3_eviction(victim, ready)
        return done

    def _handle_l3_eviction(self, victim: int, at: int) -> None:
        """L3 replacement: invalidate private copies (inclusion) and
        write dirty data to memory.

        ``victim`` is packed ``(line_addr << 2) | state``.
        """
        self._l3_stats.evictions += 1
        victim_line = victim >> 2
        for cpu in self.directory.clear(victim_line):
            # Replacement-caused, not communication.
            self.l1d[cpu].evict(victim_line, coherence=False)
            self.l2[cpu].evict(victim_line, coherence=False)
        if victim & 3 == MODIFIED:
            self._l3_stats.writebacks += 1
            self.mem.write_back(victim_line << self._line_shift, at)

    # ------------------------------------------------------------------

    def drain(self, at: int) -> int:
        """Completion time of everything still in the write buffers."""
        latest = at
        for buffer in self._write_buffers:
            t = buffer.drain_time(at)
            if t > latest:
                latest = t
        return latest

    def resource_report(self, cycles: int) -> dict[str, float]:
        """Busy fractions of the crossbar ports, L3 banks, private L2
        ports and memory."""
        report = {
            "memory": self.mem.banks.busy_cycles / cycles if cycles else 0.0,
        }
        for index, port in enumerate(self.crossbar.ports):
            report[f"l3.port{index}"] = port.utilization(cycles)
        for index, bank in enumerate(self.crossbar.banks.banks):
            report[f"l3.bank{index}"] = bank.utilization(cycles)
        for index, port in enumerate(self.l2_ports):
            report[f"cpu{index}.l2.port"] = port.utilization(cycles)
        return report
