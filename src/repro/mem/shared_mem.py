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
from repro.mem.coherence.mesi import DIRTY_COPY, SnoopController
from repro.mem.hierarchy import MemConfig, MemorySystem
from repro.mem.types import AccessResult, StallLevel, new_result
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
        self._build_paths()

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
        return self.l1d[cpu].make_dirty_store_lane(
            self._l1d_stats[cpu], self._buffers[cpu].make_post()
        )

    # ------------------------------------------------------------------
    # Built paths. Each CPU's closures hold its own arrays' probes and
    # fills, its L2 port, the snoop walks over the *other* CPUs and the
    # bus; victims are packed ``(line_addr << 2) | state``.

    def _build_paths(self) -> None:
        cpus = range(self.config.n_cpus)
        #: per CPU, shared by its paths: the L2 port's acquire, the L2
        #: replacement handler and the dirty-L1-victim write-back
        self._acquire_l2 = [
            port.make_acquire(self._l2_occupancy) for port in self.l2_ports
        ]
        self._l2_evicted = [self._make_l2_eviction(cpu) for cpu in cpus]
        self._l1_write_back = [self._make_l1_write_back(cpu) for cpu in cpus]
        super()._build_paths()

    def _make_l2_eviction(self, cpu: int):
        """``(victim, at)``: an L2 replacement enforces inclusion and
        writes dirty data back over the bus."""
        l2_stats = self._l2_stats[cpu]
        l1_evict = self.l1d[cpu].make_evict()
        write_back = self.bus.write_back

        def l2_evicted(victim: int, at: int) -> None:
            l2_stats.evictions += 1
            # Instruction lines are read-only: the I-cache is exempt
            # from inclusion (no snoop will ever need its contents).
            l1_state = l1_evict(victim >> 2, False)
            if victim & 3 == MODIFIED or l1_state == MODIFIED:
                l2_stats.writebacks += 1
                write_back(at)

        return l2_evicted

    def _make_ifetch_refill(self, cpu: int):
        # Instruction lines are read-only: no snoop, memory supplies.
        acquire_port = self._acquire_l2[cpu]
        l2_stats = self._l2_stats[cpu]
        l2 = self.l2[cpu]
        l2_probe = l2.make_probe()
        l2_fill = l2.make_fill()
        l2_invalidated = l2.invalidated
        l2_evicted = self._l2_evicted[cpu]
        latency = self._l2_latency
        memory_read = self.bus.memory_read
        hit, miss = StallLevel.L2, StallLevel.MEM

        def refill(addr: int, line_addr: int, at: int) -> tuple:
            start = acquire_port(at)
            l2_stats.reads += 1
            if l2_probe(line_addr) >= 0:
                return start + latency, hit
            if line_addr in l2_invalidated:
                l2_stats.read_misses_inval += 1
            else:
                l2_stats.read_misses_repl += 1
            done = memory_read(start + latency)
            victim = l2_fill(line_addr, SHARED)
            if victim >= 0:
                l2_evicted(victim, start)
            return done, miss

        return refill

    def _make_l1_write_back(self, cpu: int):
        """``(line_addr, at)``: a dirty L1 victim writes back into the
        (inclusive) L2 — the line is present there and already
        MODIFIED (ownership is mirrored at write time)."""
        l1_stats = self._l1d_stats[cpu]
        acquire_port = self._acquire_l2[cpu]
        l2_find = self.l2[cpu].make_find()
        l2_states = self.l2[cpu].states

        def write_back(line_addr: int, at: int) -> None:
            l1_stats.writebacks += 1
            acquire_port(at)
            way = l2_find(line_addr)
            if way >= 0:
                l2_states[way] = MODIFIED

        return write_back

    def _make_load_path(self, cpu: int):
        l1, l2 = self.l1d[cpu], self.l2[cpu]
        l1_stats, l2_stats = self._l1d_stats[cpu], self._l2_stats[cpu]
        l1_probe, l1_fill = l1.make_probe(), l1.make_fill()
        l2_probe, l2_fill = l2.make_probe(), l2.make_fill()
        l1_invalidated, l2_invalidated = l1.invalidated, l2.invalidated
        l1_write_back = self._l1_write_back[cpu]
        l2_evicted = self._l2_evicted[cpu]
        acquire_port = self._acquire_l2[cpu]
        latency = self._l2_latency
        snoop_read = self.snoop.walks(cpu)[0]
        bus = self.bus
        system_stats = self.stats
        shift = self._line_shift
        none, from_l2 = StallLevel.NONE, StallLevel.L2
        from_mem, from_c2c = StallLevel.MEM, StallLevel.C2C

        def load(addr: int, at: int) -> AccessResult:
            l1_stats.reads += 1
            line_addr = addr >> shift
            at += 1
            if l1_probe(line_addr) >= 0:
                return new_result(AccessResult, (at, none, -1))
            if line_addr in l1_invalidated:
                l1_stats.read_misses_inval += 1
            else:
                l1_stats.read_misses_repl += 1
            start = acquire_port(at)
            l2_stats.reads += 1
            state = l2_probe(line_addr)
            if state >= 0:
                done = start + latency
                level = from_l2
                if state != SHARED:
                    state = EXCLUSIVE
            else:
                if line_addr in l2_invalidated:
                    l2_stats.read_misses_inval += 1
                else:
                    l2_stats.read_misses_repl += 1
                bus_at = start + latency
                found = snoop_read(line_addr)
                if found == DIRTY_COPY:
                    done = bus.cache_to_cache(bus_at)
                    level = from_c2c
                    system_stats.c2c_transfers += 1
                    state = SHARED
                else:
                    done = bus.memory_read(bus_at)
                    level = from_mem
                    state = SHARED if found else EXCLUSIVE
                victim = l2_fill(line_addr, state)
                if victim >= 0:
                    l2_evicted(victim, bus_at)
            victim = l1_fill(line_addr, state)
            if victim >= 0:
                l1_stats.evictions += 1
                if victim & 3 == MODIFIED:
                    l1_write_back(victim >> 2, at)
            return new_result(AccessResult, (done, level, -1))

        return load

    def _make_store_path(self, cpu: int, posted: bool):
        """Stores post through the write buffer (``posted``); SCs wait
        out the path."""
        l1, l2 = self.l1d[cpu], self.l2[cpu]
        l1_stats, l2_stats = self._l1d_stats[cpu], self._l2_stats[cpu]
        l1_probe_modify, l1_fill = l1.make_probe_modify(), l1.make_fill()
        l2_probe_modify, l2_fill = l2.make_probe_modify(), l2.make_fill()
        l2_find, l2_states = l2.make_find(), l2.states
        l1_invalidated, l2_invalidated = l1.invalidated, l2.invalidated
        l1_write_back = self._l1_write_back[cpu]
        l2_evicted = self._l2_evicted[cpu]
        acquire_port = self._acquire_l2[cpu]
        latency = self._l2_latency
        _read, snoop_write, snoop_upgrade = self.snoop.walks(cpu)
        bus = self.bus
        buffer = self._buffers[cpu]
        post = buffer.make_post()
        observer = self._obs
        system_stats = self.stats
        shift = self._line_shift
        none, from_l2 = StallLevel.NONE, StallLevel.L2
        from_mem, from_c2c = StallLevel.MEM, StallLevel.C2C
        storebuf = StallLevel.STOREBUF

        def store(addr: int, at: int) -> AccessResult:
            l1_stats.writes += 1
            line_addr = addr >> shift
            issued = at
            at += 1
            # A hit ends MODIFIED whatever it was, so the probe sets it.
            state = l1_probe_modify(line_addr)
            if state >= 0:
                if state == MODIFIED:
                    done = at
                    level = none
                else:
                    # Mirror ownership into the L2 so snoops (which
                    # check the L2 tags) see the dirty line.
                    way = l2_find(line_addr)
                    if way >= 0:
                        l2_states[way] = MODIFIED
                    if state == EXCLUSIVE:
                        # Silent E->M upgrade.
                        done = at
                        level = none
                    else:
                        # SHARED: invalidate-only bus transaction.
                        done = bus.upgrade(at)
                        snoop_upgrade(line_addr)
                        if observer[0] is not None:
                            observer[0].record_coherence(cpu, "upgrade", at)
                        level = from_mem
            else:
                if line_addr in l1_invalidated:
                    l1_stats.write_misses_inval += 1
                else:
                    l1_stats.write_misses_repl += 1
                start = acquire_port(at)
                l2_stats.writes += 1
                bus_at = start + latency
                state = l2_probe_modify(line_addr)
                if state >= 0:
                    if state == SHARED:
                        done = bus.upgrade(bus_at)
                        snoop_upgrade(line_addr)
                        if observer[0] is not None:
                            observer[0].record_coherence(
                                cpu, "upgrade", bus_at
                            )
                        level = from_mem
                    else:
                        done = bus_at
                        level = from_l2
                else:
                    if line_addr in l2_invalidated:
                        l2_stats.write_misses_inval += 1
                    else:
                        l2_stats.write_misses_repl += 1
                    dirty = snoop_write(line_addr)
                    if observer[0] is not None:
                        observer[0].record_coherence(
                            cpu,
                            "rfo",
                            bus_at,
                            {"source": "c2c" if dirty else "mem"},
                        )
                    if dirty:
                        done = bus.cache_to_cache(bus_at)
                        level = from_c2c
                        system_stats.c2c_transfers += 1
                    else:
                        done = bus.memory_read(bus_at)
                        level = from_mem
                    victim = l2_fill(line_addr, MODIFIED)
                    if victim >= 0:
                        l2_evicted(victim, bus_at)
                victim = l1_fill(line_addr, MODIFIED)
                if victim >= 0:
                    l1_stats.evictions += 1
                    if victim & 3 == MODIFIED:
                        l1_write_back(victim >> 2, at)
            if not posted:
                return new_result(AccessResult, (done, level, -1))
            # The drain entered the memory pipeline at issue; only the
            # CPU is held back when the buffer is full.
            release = post(issued, done)
            return new_result(
                AccessResult,
                (
                    release + 1,
                    storebuf if release > issued else none,
                    buffer.last_visible,
                ),
            )

        return store
