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
from repro.mem.hierarchy import MemConfig, MemorySystem
from repro.mem.types import AccessResult, StallLevel, new_result
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
        self._build_paths()

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
        # The paths and lanes bind the shadow (or its absence) when
        # built; the CPUs rebind the lanes as they attach.
        self._build_paths()

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
    # dispatch. Must mirror the hit legs of the data path exactly — the
    # differential tests run with the lane off and assert identical
    # stats. The hit time (crossbar lane or optimistic shadow) commutes
    # with the tag probe (their state is disjoint), so probing first is
    # safe; a miss leaves both to the data path.

    def _make_load_lane(self, cpu: int):
        probe = self.l1d.make_probe()
        stats = self._l1d_stats
        shift = self._line_shift
        hit_time = self._make_hit_time(cpu)
        if hit_time is None:
            def fast_load(addr: int, at: int) -> int:
                if probe(addr >> shift) < 0:
                    return -1
                stats.reads += 1
                return at + 1

            return fast_load

        def fast_load(addr: int, at: int) -> int:
            if probe(addr >> shift) < 0:
                return -1
            stats.reads += 1
            return hit_time(addr, at)

        return fast_load

    def _make_store_lane(self, cpu: int):
        probe_modify = self.l1d.make_probe_modify()
        stats = self._l1d_stats
        post = self._buffers[cpu].make_post()
        shift = self._line_shift
        hit_time = self._make_hit_time(cpu)
        if hit_time is None:
            def fast_store(addr: int, at: int) -> int:
                if probe_modify(addr >> shift) < 0:
                    return -1
                stats.writes += 1
                return post(at, at + 1) + 1

            return fast_store

        def fast_store(addr: int, at: int) -> int:
            if probe_modify(addr >> shift) < 0:
                return -1
            stats.writes += 1
            return post(at, hit_time(addr, at)) + 1

        return fast_store

    # ------------------------------------------------------------------
    # Built paths. The chip below the shared L1 is one L2 and memory,
    # so its read and write accesses are built once; each CPU's data
    # path adds its own way into the shared L1 (its crossbar lane, or
    # the optimistic fiat). Victims are packed ``(line_addr << 2) |
    # state``.

    def _build_paths(self) -> None:
        self._l2_read = self._make_l2_access(is_store=False)
        self._l2_write = self._make_l2_access(is_store=True)
        super()._build_paths()

    def _make_l2_access(self, is_store: bool):
        """``(addr, line_addr, at) -> (done, serving level)`` at the
        chip-level L2, counting a read or (``is_store``) a write."""
        l2_stats = self._l2_stats
        l2 = self.l2
        probe = l2.make_probe()
        fill = l2.make_fill()
        invalidated = l2.invalidated
        acquire_port = self.l2_port.make_acquire(self._l2_occupancy)
        latency = self._l2_latency
        l1_evict = self.l1d.make_evict()
        mem = self.mem
        shift = self._line_shift
        hit, miss = StallLevel.L2, StallLevel.MEM

        def l2_access(addr: int, line_addr: int, at: int) -> tuple:
            start = acquire_port(at)
            if is_store:
                l2_stats.writes += 1
            else:
                l2_stats.reads += 1
            if probe(line_addr) >= 0:
                return start + latency, hit
            if line_addr not in invalidated:
                if is_store:
                    l2_stats.write_misses_repl += 1
                else:
                    l2_stats.read_misses_repl += 1
            elif is_store:
                l2_stats.write_misses_inval += 1
            else:
                l2_stats.read_misses_inval += 1
            done = mem.access(addr, start + latency)
            victim = fill(line_addr, SHARED)
            if victim >= 0:
                l2_stats.evictions += 1
                # Inclusion: the shared L1 data cache may not keep a
                # line the L2 no longer holds. Replacement-caused, so
                # it does not count as an invalidation miss later.
                # Instruction lines are read-only and need no
                # coherence, so the I-caches are exempt from inclusion
                # (as in real designs).
                victim_line = victim >> 2
                l1_state = l1_evict(victim_line, False)
                if victim & 3 == MODIFIED or l1_state == MODIFIED:
                    l2_stats.writebacks += 1
                    mem.write_back(victim_line << shift, start)
            return done, miss

        return l2_access

    def _make_ifetch_refill(self, cpu: int):
        return self._l2_read

    def _make_hit_time(self, cpu: int):
        """``(addr, at) -> cycle`` a shared-L1 hit from ``cpu``
        completes: through its crossbar lane, or one cycle later by the
        optimistic fiat (with the obs-only shadow driven alongside)."""
        if not self._optimistic:
            return self.crossbar.make_lane(cpu)
        shadow = self._shadow_xbar
        if shadow is None:
            return None

        def shadowed(addr: int, at: int) -> int:
            # Observability-only: record the collision the real
            # crossbar would have seen; timing is untouched.
            shadow.probe(addr, at, port=cpu)
            return at + 1

        return shadowed

    def _make_data_path(self, cpu: int, is_store: bool, posted: bool):
        """The shared-L1 access pipeline common to loads and stores.
        Stores post through the write buffer (``posted``); SCs wait out
        the path."""
        l1_stats = self._l1d_stats
        l1d = self.l1d
        probe = l1d.make_probe_modify() if is_store else l1d.make_probe()
        fill = l1d.make_fill()
        invalidated = l1d.invalidated
        fill_state = MODIFIED if is_store else SHARED
        hit_time = self._make_hit_time(cpu)
        l2_access = self._l2_write if is_store else self._l2_read
        acquire_port = self.l2_port.make_acquire(self._l2_occupancy)
        l2_find, l2_states = self.l2.make_find(), self.l2.states
        mem = self.mem
        buffer = self._buffers[cpu]
        post = buffer.make_post()
        shift = self._line_shift
        none, slow_hit = StallLevel.NONE, StallLevel.L1
        storebuf = StallLevel.STOREBUF

        def data_path(addr: int, at: int) -> AccessResult:
            if is_store:
                l1_stats.writes += 1
            else:
                l1_stats.reads += 1
            done = at + 1 if hit_time is None else hit_time(addr, at)
            line_addr = addr >> shift
            if probe(line_addr) >= 0:
                level = none if done - at <= 1 else slow_hit
            else:
                if line_addr not in invalidated:
                    if is_store:
                        l1_stats.write_misses_repl += 1
                    else:
                        l1_stats.read_misses_repl += 1
                elif is_store:
                    l1_stats.write_misses_inval += 1
                else:
                    l1_stats.read_misses_inval += 1
                hit_done = done
                done, level = l2_access(addr, line_addr, hit_done)
                victim = fill(line_addr, fill_state)
                if victim >= 0 and victim & 3 == MODIFIED:
                    # Posted write-back of the dirty victim into the
                    # L2. It drains from the victim buffer
                    # opportunistically; reserving the port at the
                    # *initiating* time keeps the busy timeline causal
                    # (a future reservation would head-of-line block
                    # demand misses arriving in between).
                    l1_stats.writebacks += 1
                    acquire_port(hit_done)
                    # Inclusion means the line is normally present; if
                    # it raced out, the data goes to memory instead.
                    way = l2_find(victim >> 2)
                    if way >= 0:
                        l2_states[way] = MODIFIED
                    else:
                        mem.write_back((victim >> 2) << shift, hit_done)
            if not posted:
                return new_result(AccessResult, (done, level, -1))
            # The drain entered the memory pipeline at issue; only the
            # CPU is held back when the buffer is full.
            release = post(at, done)
            return new_result(
                AccessResult,
                (
                    release + 1,
                    storebuf if release > at else none,
                    buffer.last_visible,
                ),
            )

        return data_path

    def _make_load_path(self, cpu: int):
        return self._make_data_path(cpu, is_store=False, posted=False)

    def _make_store_path(self, cpu: int, posted: bool):
        return self._make_data_path(cpu, is_store=True, posted=posted)
