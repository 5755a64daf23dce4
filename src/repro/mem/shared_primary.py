"""Sharing at the primary cache — paper Section 2.2 and its scaled-up
cousin (MemPool-style clusters, arXiv 2012.02973).

All CPUs share one banked write-back L1 *data* cache through the spec's
interconnect; instruction caches stay private per CPU. A single-stage
crossbar (the paper's ``shared-l1``: four CPUs, four banks) and its
bank arbitration raise the L1 data hit time from 1 cycle to 3, and
references from different CPUs can conflict in the banks — except
under the Mipsy model, which the paper deliberately runs optimistically
(1-cycle hits, no bank contention; ``MemConfig.shared_l1_optimistic``).
At 16+ cores (``cluster-l1``) the crossbar becomes a pipelined
multi-stage interconnect whose traversal is the design point under
study, so the optimistic fiat never applies to it: both CPU models pay
every stage.

Below the shared L1 the chip looks like a uniprocessor: one unified L2
behind a single port and main memory. No inter-CPU coherence machinery
exists anywhere — the processors communicate by construction inside
the one data cache, which is why this discipline offers no spin port.
"""

from __future__ import annotations

from repro.mem.bank import Resource
from repro.mem.cache import MODIFIED, SHARED, CacheArray
from repro.mem.crossbar import build_crossbar, crossbar_resources
from repro.mem.hierarchy import MemConfig, MemorySystem, count_miss
from repro.mem.types import AccessResult, StallLevel
from repro.sim.stats import SystemStats


class SharedPrimarySystem(MemorySystem):
    """One interconnect-banked shared L1D over a unified L2 and memory."""

    def __init__(
        self, topology, config: MemConfig, stats: SystemStats
    ) -> None:
        super().__init__(config, stats)
        levels = self._scaffold(topology)
        if [level.name for level in levels] != ["l1d", "l2"]:
            self._reject("the", "levels", "must be exactly ('l1d', 'l2')")
        l1, l2 = levels
        for level in levels:
            where = f"level {level.name!r}"
            if level.arrays(config.n_cpus) != 1:
                self._reject(where, "sharing", "must cover every CPU")
            if level.write_policy != "writeback":
                self._reject(where, "write_policy", "must be 'writeback'")
        if l2.banks != 1:
            self._reject(
                "level 'l2'", "banks", "must be 1 (one port to the L2)"
            )
        if config.l1_coherence != "invalidate":
            self._reject(
                "MemConfig",
                "l1_coherence",
                f"{config.l1_coherence!r} needs private L1s under a "
                "directory; a shared L1 has no copies to update",
            )
        line = config.line_size
        self.l1d = CacheArray("shared.l1d", l1.size, l1.assoc, line)
        self._l1d_stats = stats.cache("shared.l1d")
        self.crossbar = build_crossbar(
            "l1.xbar", l1, topology.interconnect, config.n_cpus, line
        )
        self._link = self.crossbar
        # The Mipsy fiat (1-cycle hits, the crossbar never consulted) is
        # the paper's, for its single-stage machine only.
        self._optimistic = (
            config.shared_l1_optimistic and not self.crossbar.switches
        )
        self._hit_time = (
            self._optimistic_hit if self._optimistic else self._crossbar_hit
        )
        # Obs-only shadow crossbar (see attach_obs): measures the bank
        # contention the optimistic timing deliberately ignores, without
        # feeding back into any completion time.
        self._shadow_xbar = None
        self.l2 = CacheArray("chip.l2", l2.size, l2.assoc, line)
        self._l2_stats = stats.cache("chip.l2")
        self.l2_port = Resource("chip.l2.port")
        self._l2_latency = l2.latency
        self._l2_occupancy = l2.occupancy
        self.mem = self._main_memory()
        self._build_lanes()

    def attach_obs(self, obs) -> None:
        """Wire the crossbar for conflict events.

        Under the optimistic fiat the real crossbar is never consulted
        — hits complete in one cycle — so a *shadow* crossbar of the
        same shape is driven alongside the optimistic path. Its
        grant/conflict/bank counters show the contention the optimism
        hides; simulated timing and statistics are untouched (the
        shadow's completion times are discarded).
        """
        if self._optimistic:
            self._shadow_xbar = self._link = build_crossbar(
                "l1.xbar",
                self.topology.level("l1d"),
                self.topology.interconnect,
                self.config.n_cpus,
                self.config.line_size,
            )
        super().attach_obs(obs)

    def _resources(self, probing: bool = False):
        # The report reads the crossbar that sets the timing; the
        # probes watch whichever one sees the traffic.
        xbar = self._link if probing else self.crossbar
        return [
            ("l2.port", "l2.port.busy", self.l2_port),
            ("memory", "mem.busy", self.mem.banks),
            *crossbar_resources("l1", xbar, ports=False),
        ]

    def components(self) -> dict:
        """The scaffold's, plus both caches, the interconnect (and its
        obs-only shadow), the L2 port, memory and the store buffers."""
        return {
            **super().components(),
            "_shadow_xbar": self._shadow_xbar,
            "_store_buffers": self._buffers,
            "crossbar": self.crossbar,
            "l1d": self.l1d,
            "l2": self.l2,
            "l2_port": self.l2_port,
            "mem": self.mem,
        }

    # ------------------------------------------------------------------
    # L1 hit fast lane: single packed tag probe + LRU stamp, no
    # dispatch. Must mirror the hit legs of _load/_store exactly — the
    # differential tests run with the lane off and assert identical
    # stats. The crossbar acquire commutes with the tag probe (their
    # state is disjoint), so probing first is safe.

    def _make_load_lane(self, cpu: int):
        probe = self.l1d.make_probe()
        stats = self._l1d_stats
        shift = self._line_shift
        if self._optimistic:
            def fast_load(addr: int, at: int) -> int:
                if probe(addr >> shift) < 0:
                    return -1
                stats.reads += 1
                return at + 1

            return fast_load
        xbar_lane = self.crossbar.make_lane(cpu)

        def fast_load(addr: int, at: int) -> int:
            if probe(addr >> shift) < 0:
                return -1
            stats.reads += 1
            return xbar_lane(addr, at)

        return fast_load

    def _make_store_lane(self, cpu: int):
        probe_modify = self.l1d.make_probe_modify()
        stats = self._l1d_stats
        buffer_admit = self._buffers[cpu].admit
        buffer_push = self._buffers[cpu].push
        shift = self._line_shift
        if self._optimistic:
            def fast_store(addr: int, at: int) -> int:
                if probe_modify(addr >> shift) < 0:
                    return -1
                stats.writes += 1
                release, _stalled = buffer_admit(at)
                buffer_push(at + 1)
                return release + 1

            return fast_store
        xbar_lane = self.crossbar.make_lane(cpu)

        def fast_store(addr: int, at: int) -> int:
            if probe_modify(addr >> shift) < 0:
                return -1
            stats.writes += 1
            release, _stalled = buffer_admit(at)
            buffer_push(xbar_lane(addr, at))
            return release + 1

        return fast_store

    # ------------------------------------------------------------------

    def _refill_ifetch(
        self, cpu: int, addr: int, line_addr: int, at: int
    ) -> tuple[int, StallLevel]:
        return self._l2_access(addr, at, is_store=False)

    def _load(self, cpu: int, addr: int, at: int) -> AccessResult:
        self._l1d_stats.reads += 1
        done, level = self._data_path(cpu, addr, at, is_store=False)
        return AccessResult(done, level)

    def _store(
        self, cpu: int, addr: int, at: int, posted: bool
    ) -> AccessResult:
        """Stores post through the write buffer; SCs wait out the path."""
        self._l1d_stats.writes += 1
        if not posted:
            done, level = self._data_path(cpu, addr, at, is_store=True)
            return AccessResult(done, level)
        buffer = self._buffers[cpu]
        release, stalled = buffer.admit(at)
        # The drain enters the memory pipeline now; only the CPU is
        # held back when the buffer is full.
        complete, _level = self._data_path(cpu, addr, at, is_store=True)
        visible = buffer.push(complete)
        level = StallLevel.STOREBUF if stalled else StallLevel.NONE
        return AccessResult(release + 1, level, visible=visible)

    def _crossbar_hit(self, cpu: int, addr: int, at: int) -> int:
        ready, _wait = self.crossbar.access(addr, at, port=cpu)
        return ready

    def _optimistic_hit(self, cpu: int, addr: int, at: int) -> int:
        if self._shadow_xbar is not None:
            # Observability-only: record the collision the real
            # crossbar would have seen; timing is untouched.
            self._shadow_xbar.probe(addr, at, port=cpu)
        return at + 1

    def _data_path(
        self, cpu: int, addr: int, at: int, is_store: bool
    ) -> tuple[int, StallLevel]:
        """The shared-L1 access pipeline common to loads and stores."""
        hit_done = self._hit_time(cpu, addr, at)
        l1d = self.l1d
        line_addr = addr >> self._line_shift
        state = (
            l1d.probe_modify(line_addr) if is_store else l1d.probe(line_addr)
        )
        if state >= 0:
            level = StallLevel.NONE if hit_done - at <= 1 else StallLevel.L1
            return hit_done, level

        miss_kind = l1d.classify_line(line_addr)
        count_miss(self._l1d_stats, miss_kind, is_store)
        done, level = self._l2_access(addr, hit_done, is_store=is_store)
        fill_state = MODIFIED if is_store else SHARED
        victim = l1d.fill(line_addr, fill_state)
        if victim >= 0 and victim & 3 == MODIFIED:
            # The writeback drains from the victim buffer opportunistically;
            # reserving the port at the *initiating* time keeps the busy
            # timeline causal (a future reservation would head-of-line
            # block demand misses arriving in between).
            self._write_back_to_l2(
                (victim >> 2) << self._line_shift, hit_done
            )
        return done, level

    # ------------------------------------------------------------------

    def _l2_access(
        self, addr: int, at: int, is_store: bool
    ) -> tuple[int, StallLevel]:
        """Access the chip-level L2; returns (done, serving level)."""
        start = self.l2_port.acquire(at, self._l2_occupancy)
        if is_store:
            self._l2_stats.writes += 1
        else:
            self._l2_stats.reads += 1
        line_addr = addr >> self._line_shift
        l2 = self.l2
        if l2.probe(line_addr) >= 0:
            return start + self._l2_latency, StallLevel.L2

        miss_kind = l2.classify_line(line_addr)
        count_miss(self._l2_stats, miss_kind, is_store)
        done = self.mem.access(addr, start + self._l2_latency)
        victim = l2.fill(line_addr, SHARED)
        if victim >= 0:
            self._handle_l2_eviction(victim, start)
        return done, StallLevel.MEM

    def _handle_l2_eviction(self, victim: int, at: int) -> None:
        """Maintain inclusion and write dirty victims to memory.

        ``victim`` is packed ``(line_addr << 2) | state``.
        """
        victim_line = victim >> 2
        self._l2_stats.evictions += 1
        dirty = victim & 3 == MODIFIED
        # Inclusion: the shared L1 data cache may not keep a line the L2
        # no longer holds. Replacement-caused, so it does not count as
        # an invalidation miss later. Instruction lines are read-only
        # and need no coherence, so the I-caches are exempt from
        # inclusion (as in real designs).
        l1_state = self.l1d.evict(victim_line, coherence=False)
        if l1_state == MODIFIED:
            dirty = True
        if dirty:
            self._l2_stats.writebacks += 1
            self.mem.write_back(victim_line << self._line_shift, at)

    def _write_back_to_l2(self, addr: int, at: int) -> None:
        """Posted write-back of a dirty shared-L1 victim into the L2."""
        self._l1d_stats.writebacks += 1
        self.l2_port.acquire(at, self._l2_occupancy)
        # Inclusion means the line is normally present; if it raced out,
        # the data goes to memory instead.
        if not self.l2.set_state(addr >> self._line_shift, MODIFIED):
            self.mem.write_back(addr, at)
