"""The shared-L2 (shared secondary cache) architecture — paper Section 2.3.

Each CPU keeps a private, single-cycle, *write-through* L1 pair; all
four share a 4-banked write-back L2 behind a crossbar chip. The
crossbar and extra die crossings raise the L2 latency from 10 to 14
cycles, and its 64-bit datapath doubles the per-line occupancy from 2
to 4 cycles.

Coherence is the simple directory scheme the paper describes: every L2
line has a directory entry naming the L1s that hold a copy; a write (as
it drains through the write buffer into the L2) or an L2 replacement
invalidates the other copies. Stores release the CPU in one cycle while
a per-CPU write buffer drains them into the L2 banks — the resulting
port contention between write traffic and L1 miss refills is exactly
the effect the paper blames for this architecture's loss on the OS
workload.
"""

from __future__ import annotations

from repro.mem.cache import MODIFIED, SHARED, CacheArray
from repro.mem.coherence.directory import Directory
from repro.mem.crossbar import Crossbar
from repro.mem.hierarchy import MemConfig, MemorySystem, count_miss
from repro.mem.mainmem import MainMemory
from repro.mem.types import AccessKind, AccessResult, StallLevel
from repro.mem.writebuffer import WriteBuffer
from repro.sim.stats import SystemStats


class SharedL2System(MemorySystem):
    """Private write-through L1s over a shared, banked, write-back L2."""

    name = "shared-l2"

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
        self.l2 = CacheArray("shared.l2", config.l2_size, config.l2_assoc, line)
        self._l2_stats = stats.cache("shared.l2")
        self.crossbar = Crossbar(
            "l2.xbar",
            config.n_l2_banks,
            line,
            latency=config.shared_l2_latency,
            occupancy=config.shared_l2_occupancy,
            n_ports=n_cpus,
        )
        self.directory = Directory()
        self.mem = MainMemory(
            config.mem_latency,
            config.mem_occupancy,
            config.n_mem_banks,
            line,
        )
        # Per-CPU write buffers draining into the L2 banks.
        self._write_buffers = [
            WriteBuffer(config.write_buffer_depth) for _ in range(n_cpus)
        ]
        self._line_shift = self.l2.line_shift
        self._build_lanes()

    def attach_obs(self, obs) -> None:
        """Wire the L2 crossbar for conflict events."""
        super().attach_obs(obs)
        self.crossbar.obs = obs

    def obs_probes(self) -> list[tuple]:
        """Crossbar grants/conflicts, per-bank and per-port busy,
        memory busy and write-buffer fill."""
        probes: list[tuple] = [
            ("rate", "l2.xbar.grants", lambda: self.crossbar.requests),
            ("rate", "l2.xbar.conflict", lambda: self.crossbar.wait_cycles),
            ("rate", "mem.busy", lambda: self.mem.banks.busy_cycles),
        ]
        for index, bank in enumerate(self.crossbar.banks.banks):
            probes.append(
                ("rate", f"l2.bank{index}.busy", lambda b=bank: b.busy_cycles)
            )
        for index, port in enumerate(self.crossbar.ports):
            probes.append(
                ("rate", f"l2.port{index}.busy", lambda p=port: p.busy_cycles)
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
        """Dispatch one access through the shared-L2 request paths."""
        if kind == AccessKind.IFETCH:
            return self._ifetch(cpu, addr, at)
        if kind == AccessKind.LOAD:
            return self._load(cpu, addr, at)
        return self._store(cpu, addr, at, posted=kind == AccessKind.STORE)

    # ------------------------------------------------------------------
    # Fast lanes. Loads and I-fetches resolve single-cycle private L1
    # hits (a miss returns -1 untouched and the general path re-probes —
    # a missing probe does not mutate, so the double probe is
    # invisible). The *store* lane covers the whole write-through path
    # for posted value-less stores — L1 touch, buffer admission, L2
    # drain, directory invalidations — because under write-through
    # every store takes it; it must mirror _store(posted=True) exactly
    # (the differential suite runs with the lane off and asserts
    # identical stats).

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
        if self.config.l1_coherence != "invalidate":
            # The write-update walk refreshes sharers in place and
            # charges crossbar word transfers; keep it on the one
            # general path.
            return lambda addr, at: -1
        shift = self._line_shift
        l1_probe = self.l1d[cpu].make_probe()
        l1d_stats = self._l1d_stats[cpu]
        all_l1ds = self.l1d
        all_l1d_stats = self._l1d_stats
        buffer_admit = self._write_buffers[cpu].admit
        buffer_push = self._write_buffers[cpu].push
        l2_probe_modify = self.l2.make_probe_modify()
        l2_stats = self._l2_stats
        xbar_lane = self.crossbar.make_lane(cpu, occupancy=1)
        invalidate_mask = self.directory.invalidate_for_write_mask
        system = self

        def fast_store(addr: int, at: int) -> int:
            l1d_stats.writes += 1
            l1d_stats.write_throughs += 1
            line_addr = addr >> shift
            # Write-through: a resident copy is updated in place and
            # stays valid; a store miss does not allocate.
            l1_probe(line_addr)
            release, _stalled = buffer_admit(at)
            # The drain enters the L2 pipeline now; only the CPU is
            # held back when the buffer is full.
            ready = xbar_lane(addr, at)
            l2_stats.writes += 1
            if l2_probe_modify(line_addr) >= 0:
                drain_done = ready
            else:
                drain_done = system._l2_write_miss(addr, line_addr, ready)
            victims = invalidate_mask(line_addr, cpu)
            if victims:
                other = 0
                while victims:
                    if victims & 1 and all_l1ds[other].evict(line_addr) >= 0:
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
        """The private L1D, under directory invalidation (write-update
        refreshes sharers in place, so a copy's value can change
        without the line leaving)."""
        if self.config.l1_coherence != "invalidate":
            return None
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
        done, level = self._l2_read(cpu, addr, at + 1)
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
        done, level = self._l2_read(cpu, addr, at + 1)
        victim = cache.fill(line_addr, SHARED)
        self.directory.add_holder(line_addr, cpu)
        if victim >= 0:
            cache_stats.evictions += 1
            self.directory.remove_holder(victim >> 2, cpu)
        return AccessResult(done, level)

    def _store(
        self, cpu: int, addr: int, at: int, posted: bool
    ) -> AccessResult:
        """Write-through, no-allocate store via the per-CPU write buffer.

        The CPU is released after one cycle unless the buffer is full,
        in which case it waits for the oldest drain to finish. The value
        becomes visible to other CPUs when the drain reaches the L2
        (``AccessResult.visible``). Store-conditionals are not posted —
        the CPU waits for the drain itself.
        """
        cache = self.l1d[cpu]
        cache_stats = self._l1d_stats[cpu]
        cache_stats.writes += 1
        cache_stats.write_throughs += 1
        line_addr = addr >> self._line_shift
        # Write-through: a resident copy is updated in place and stays
        # valid; a store miss does not allocate.
        cache.probe(line_addr)

        if posted:
            release, stalled = self._write_buffers[cpu].admit(at)
        else:
            release, stalled = at, False
        # The drain enters the L2 pipeline now; only the CPU is held
        # back when the buffer is full.
        drain_done = self._l2_write_drain(cpu, addr, at)

        if self.config.l1_coherence == "update":
            # Write-update: sharers' copies are refreshed in place; the
            # broadcast costs one word transfer on the writer's
            # crossbar port per live sharer.
            for other in self.directory.holders(line_addr, excluding=cpu):
                if self.l1d[other].probe_quiet(line_addr) < 0:
                    # The sharer silently dropped the line; stop
                    # updating it.
                    self.directory.remove_holder(line_addr, other)
                    continue
                self._l1d_stats[other].updates_received += 1
                self.crossbar.access(addr, at, port=cpu, occupancy=1)
                if self.obs is not None:
                    self.obs.record_coherence(
                        other, "update", at, {"by": cpu}
                    )
        else:
            victims = self.directory.invalidate_for_write_mask(line_addr, cpu)
            other = 0
            while victims:
                if victims & 1 and self.l1d[other].evict(line_addr) >= 0:
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

    def _l2_read(
        self, cpu: int, addr: int, at: int
    ) -> tuple[int, StallLevel]:
        """Refill path: L1 miss (data or instruction) through the L2."""
        ready, _wait = self.crossbar.access(addr, at, port=cpu)
        self._l2_stats.reads += 1
        line_addr = addr >> self._line_shift
        if self.l2.probe(line_addr) >= 0:
            return ready, StallLevel.L2
        miss_kind = self.l2.classify_line(line_addr)
        count_miss(self._l2_stats, miss_kind, is_store=False)
        done = self.mem.access(addr, ready)
        victim = self.l2.fill(line_addr, SHARED)
        if victim >= 0:
            self._handle_l2_eviction(victim, ready)
        return done, StallLevel.MEM

    def _l2_write_drain(self, cpu: int, addr: int, at: int) -> int:
        """One write-buffer entry draining into its L2 bank.

        The drain is a word write — one cycle on the 64-bit datapath;
        only a write-allocate line fetch pays the full line-transfer
        occupancy.
        """
        ready, _wait = self.crossbar.access(addr, at, port=cpu, occupancy=1)
        self._l2_stats.writes += 1
        line_addr = addr >> self._line_shift
        if self.l2.probe_modify(line_addr) >= 0:
            return ready
        return self._l2_write_miss(addr, line_addr, ready)

    def _l2_write_miss(self, addr: int, line_addr: int, ready: int) -> int:
        """Write-allocate in the (write-back) L2: fetch the line first."""
        miss_kind = self.l2.classify_line(line_addr)
        count_miss(self._l2_stats, miss_kind, is_store=True)
        done = self.mem.access(addr, ready)
        victim = self.l2.fill(line_addr, MODIFIED)
        if victim >= 0:
            self._handle_l2_eviction(victim, ready)
        return done

    def _handle_l2_eviction(self, victim: int, at: int) -> None:
        """L2 replacement: invalidate L1 copies (inclusion) and write
        dirty data to memory.

        ``victim`` is packed ``(line_addr << 2) | state``.
        """
        self._l2_stats.evictions += 1
        victim_line = victim >> 2
        for cpu in self.directory.clear(victim_line):
            # Replacement-caused, not communication: classify later
            # misses on this line as replacement misses.
            self.l1d[cpu].evict(victim_line, coherence=False)
        if victim & 3 == MODIFIED:
            self._l2_stats.writebacks += 1
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
        """Busy fractions of the crossbar ports, L2 banks and memory."""
        report = {
            "memory": self.mem.banks.busy_cycles / cycles if cycles else 0.0,
        }
        for index, port in enumerate(self.crossbar.ports):
            report[f"l2.port{index}"] = port.utilization(cycles)
        for index, bank in enumerate(self.crossbar.banks.banks):
            report[f"l2.bank{index}"] = bank.utilization(cycles)
        return report
