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

import dataclasses

from repro.mem.bank import Resource
from repro.mem.bus import SnoopyBus
from repro.mem.cache import EXCLUSIVE, MODIFIED, SHARED
from repro.mem.coherence.mesi import SnoopController
from repro.mem.hierarchy import MemConfig, MemorySystem, count_miss
from repro.mem.types import AccessResult, StallLevel
from repro.sim.stats import SystemStats


class SharedMemorySystem(MemorySystem):
    """Private L1+L2 per CPU over a snoopy MESI bus."""

    def __init__(
        self, topology, config: MemConfig, stats: SystemStats
    ) -> None:
        super().__init__(config, stats)
        levels = self._scaffold(topology)
        if [level.name for level in levels] != ["l1d", "l2"]:
            self._reject("the", "levels", "must be exactly ('l1d', 'l2')")
        l1, l2 = levels
        self._require_private_l1d(l1)
        if l2.arrays(config.n_cpus) != config.n_cpus:
            self._reject(
                "level 'l2'",
                "sharing",
                "must be 1: a shared level cannot sit above a snoopy bus",
            )
        if l2.banks != 1:
            self._reject("level 'l2'", "banks", "must be 1 on a private level")
        for level in levels:
            if level.write_policy != "writeback":
                self._reject(
                    f"level {level.name!r}",
                    "write_policy",
                    "must be 'writeback' (MESI keeps dirty lines private)",
                )
        link = topology.interconnect
        if link.kind != "bus" or len(link.stage_latencies) != 1:
            self._reject(
                "interconnect", "kind", "must be a single-stage 'bus'"
            )
        if config.l1_coherence != "invalidate":
            self._reject(
                "MemConfig",
                "l1_coherence",
                f"{config.l1_coherence!r} needs a directory; the snoopy "
                "MESI bus always invalidates",
            )
        cpus = range(config.n_cpus)
        self.l1d, self._l1d_stats = self._per_cpu_caches(
            "l1d", l1.size, l1.assoc
        )
        self.l2, self._l2_stats = self._per_cpu_caches(
            "l2", l2.size, l2.assoc
        )
        self.l2_ports = [Resource(f"cpu{i}.l2.port") for i in cpus]
        self._l2_latency = l2.latency
        self._l2_occupancy = l2.occupancy
        # The spec carries the bus's memory-read point; the other
        # transaction timings have no field there and stay MemConfig's.
        self.bus = SnoopyBus(
            dataclasses.replace(
                config.bus,
                mem_latency=link.latency,
                mem_occupancy=link.occupancy,
            )
        )
        self._link = self.bus
        self.snoop = SnoopController(
            self.l1d, self.l2, self._l1d_stats, self._l2_stats
        )
        # Loads are MESI-state-blind, so a spinner may park on its L1D.
        self._spin_ports = list(zip(self.l1d, self._l1d_stats))
        self._build_lanes()

    def _resources(self, probing: bool = False):
        return [
            ("bus", "bus.busy", self.bus.resource),
            *(
                (f"cpu{i}.l2.port", f"cpu{i}.l2port.busy", port)
                for i, port in enumerate(self.l2_ports)
            ),
        ]

    def components(self) -> dict:
        """The scaffold's, plus both private levels, the L2 ports, the
        bus and the store buffers (the snoop controller holds only
        references to the caches)."""
        return {
            **super().components(),
            "_store_buffers": self._buffers,
            "bus": self.bus,
            "l1d": self.l1d,
            "l2": self.l2,
            "l2_ports": self.l2_ports,
        }

    # ------------------------------------------------------------------
    # Fast lanes: the scaffold's private single-cycle load and I-fetch
    # lanes, plus a store lane for the one case that needs no
    # transaction.

    def _make_store_lane(self, cpu: int):
        # Only an already-MODIFIED line may absorb a posted store
        # without a transaction (E/S states need upgrades).
        probe_dirty = self.l1d[cpu].make_probe_dirty()
        stats = self._l1d_stats[cpu]
        buffer = self._buffers[cpu]
        shift = self._line_shift

        def fast_store(addr: int, at: int) -> int:
            if not probe_dirty(addr >> shift):
                return -1
            stats.writes += 1
            release, _stalled = buffer.admit(at)
            buffer.push(at + 1)
            return release + 1

        return fast_store

    # ------------------------------------------------------------------

    def _refill_ifetch(
        self, cpu: int, addr: int, line_addr: int, at: int
    ) -> tuple[int, StallLevel]:
        # Instruction lines are read-only: no snoop, memory supplies.
        start = self.l2_ports[cpu].acquire(at, self._l2_occupancy)
        self._l2_stats[cpu].reads += 1
        l2 = self.l2[cpu]
        if l2.probe(line_addr) >= 0:
            return start + self._l2_latency, StallLevel.L2
        miss_kind = l2.classify_line(line_addr)
        count_miss(self._l2_stats[cpu], miss_kind, is_store=False)
        done = self.bus.memory_read(start + self._l2_latency)
        victim = l2.fill(line_addr, SHARED)
        if victim >= 0:
            self._handle_l2_eviction(cpu, victim, start)
        return done, StallLevel.MEM

    def _load(self, cpu: int, addr: int, at: int) -> AccessResult:
        cache = self.l1d[cpu]
        cache_stats = self._l1d_stats[cpu]
        cache_stats.reads += 1
        line_addr = addr >> self._line_shift
        if cache.probe(line_addr) >= 0:
            return AccessResult(at + 1, StallLevel.NONE)

        miss_kind = cache.classify_line(line_addr)
        count_miss(cache_stats, miss_kind, is_store=False)

        start = self.l2_ports[cpu].acquire(at + 1, self._l2_occupancy)
        self._l2_stats[cpu].reads += 1
        l2 = self.l2[cpu]
        l2_state = l2.probe(line_addr)
        if l2_state >= 0:
            done = start + self._l2_latency
            level = StallLevel.L2
            l1_state = SHARED if l2_state == SHARED else EXCLUSIVE
        else:
            l2_miss = l2.classify_line(line_addr)
            count_miss(self._l2_stats[cpu], l2_miss, is_store=False)
            bus_at = start + self._l2_latency
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
        buffer = self._buffers[cpu]
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

        start = self.l2_ports[cpu].acquire(at + 1, self._l2_occupancy)
        self._l2_stats[cpu].writes += 1
        l2 = self.l2[cpu]
        l2_state = l2.probe(line_addr)
        if l2_state >= 0:
            if l2_state == SHARED:
                done = self.bus.upgrade(start + self._l2_latency)
                self.snoop.upgrade(cpu, line_addr)
                if self.obs is not None:
                    self.obs.record_coherence(
                        cpu, "upgrade", start + self._l2_latency
                    )
                level = StallLevel.MEM
            else:
                done = start + self._l2_latency
                level = StallLevel.L2
            l2.set_state(line_addr, MODIFIED)
        else:
            l2_miss = l2.classify_line(line_addr)
            count_miss(self._l2_stats[cpu], l2_miss, is_store=True)
            bus_at = start + self._l2_latency
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
        self.l2_ports[cpu].acquire(at, self._l2_occupancy)
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
