"""Memory-system configuration and the scaffold every hierarchy shares.

:class:`MemConfig` collects every geometry and timing knob the
topology presets draw from; the scale presets in
:mod:`repro.core.configs` fill it in with the paper's Table 2 numbers.
:class:`MemorySystem` is the interface the CPU models drive *and* the
part of a hierarchy that does not depend on how its CPUs share: the
private instruction caches, the per-CPU write buffers, the access
dispatch, the fast lanes and the resource reporting. What is left to a
subclass is a coherence discipline (:mod:`repro.mem.shared_primary`,
:mod:`repro.mem.shared_secondary`, :mod:`repro.mem.shared_mem`), each
built from the resolved :class:`~repro.mem.topology.Topology` alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.mem.bus import BusTiming
from repro.mem.cache import SHARED, CacheArray
from repro.mem.mainmem import MainMemory
from repro.mem.types import AccessKind, AccessResult, StallLevel, new_result
from repro.mem.writebuffer import WriteBuffer
from repro.sim.stats import SystemStats


@dataclass
class MemConfig:
    """Geometry and timing of the memory hierarchy.

    Sizes are bytes, latencies/occupancies are CPU cycles. The defaults
    are the paper's values (Table 2 and Section 2); the scaled presets
    in :mod:`repro.core.configs` shrink the *sizes* only — latencies are
    the object of study and never scale.
    """

    n_cpus: int = 4
    line_size: int = 32

    # Private per-CPU instruction cache (all architectures).
    l1i_size: int = 16 * 1024
    l1i_assoc: int = 2

    # L1 data cache: private in shared-L2/shared-memory, one shared
    # banked array of n_cpus * l1d_size bytes in shared-L1.
    l1d_size: int = 16 * 1024
    l1d_assoc: int = 2

    # Unified L2.
    l2_size: int = 2 * 1024 * 1024
    l2_assoc: int = 1

    # Table 2 timings.
    l1_latency: int = 1
    l1_occupancy: int = 1
    shared_l1_latency: int = 3     # through the crossbar
    l2_latency: int = 10
    l2_occupancy: int = 2
    shared_l2_latency: int = 14    # crossbar + extra die crossings
    shared_l2_occupancy: int = 4   # 64-bit datapath, 32-byte line
    mem_latency: int = 50
    mem_occupancy: int = 6

    # Shared tertiary cache (the ``shared-l3`` topology; unused by the
    # paper's three architectures). The stacked L3 sits at its own
    # latency/bandwidth point between the private L2s and memory.
    l3_size: int = 8 * 1024 * 1024
    l3_assoc: int = 4
    shared_l3_latency: int = 25    # through the crossbar to the stack
    l3_occupancy: int = 4
    n_l3_banks: int = 8

    # Banking / buffering. Main memory is "uniprocessor-like": its
    # internal multibanking is what gets the per-access occupancy down
    # to 6 cycles, but accesses serialize on the one memory bus.
    n_l1_banks: int = 4
    n_l2_banks: int = 4
    n_mem_banks: int = 1
    write_buffer_depth: int = 8

    # Mipsy runs the shared-L1 architecture optimistically (1-cycle hit,
    # no bank contention) per Section 4; MXS turns this off. Applies to
    # a single-stage crossbar only: a multi-stage interconnect is always
    # paid.
    shared_l1_optimistic: bool = False

    # Resolve L1 hits through the single-probe fast lanes
    # (``MemorySystem.fast_lanes``). Behaviorally invisible; exists so
    # the differential tests can force the general path and assert
    # identical statistics.
    l1_fast_path: bool = True

    # Private-cache coherence policy under a directory (Section 2.3:
    # "all processors caching the line must receive invalidates or
    # updates"). "invalidate" drops remote copies; "update" refreshes
    # them in place — spinners keep hitting locally but every write
    # busies the sharers' caches. Disciplines without a directory
    # (shared-primary, shared-memory) reject "update".
    l1_coherence: str = "invalidate"

    bus: BusTiming = field(default_factory=BusTiming)

    def __post_init__(self) -> None:
        if self.n_cpus <= 0:
            raise ConfigError("n_cpus must be positive")
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ConfigError("line_size must be a power of two")
        for name in ("l1i_size", "l1d_size", "l2_size", "l3_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.write_buffer_depth <= 0:
            raise ConfigError("write_buffer_depth must be positive")
        if self.l1_coherence not in ("invalidate", "update"):
            raise ConfigError(
                "l1_coherence must be 'invalidate' or 'update', got "
                f"{self.l1_coherence!r}"
            )

    @property
    def shared_l1_size(self) -> int:
        """The shared L1 pools the per-CPU capacity (4 x 16 KB = 64 KB)."""
        return self.l1d_size * self.n_cpus

    def with_overrides(self, **overrides) -> "MemConfig":
        """A copy with the given fields replaced, re-validated.

        This is the one sanctioned way to apply ad-hoc overrides (CLI
        ``--set``, bench ``BENCH_OVERRIDES``, sweep points): unlike raw
        ``setattr`` it goes back through ``__init__``/``__post_init__``,
        so an override can never smuggle in a value the constructor
        would have rejected.
        """
        names = {f.name for f in dataclasses.fields(self)}
        for key in overrides:
            if key not in names:
                raise ConfigError(f"unknown MemConfig field {key!r}")
        return dataclasses.replace(self, **overrides)

    def scaled(self, divisor: int) -> "MemConfig":
        """A copy with every cache size divided by ``divisor``.

        Timings, line size, and bank/buffer counts are untouched: the
        paper's latency numbers are the design points under study and
        the scaling policy (DESIGN.md Section 5) only shrinks
        capacities together with the workload inputs.
        """
        if divisor <= 0:
            raise ConfigError("scale divisor must be positive")

        def shrink(size: int) -> int:
            scaled_size = size // divisor
            minimum = self.line_size * 4
            return scaled_size if scaled_size >= minimum else minimum

        # ``replace`` carries every other field (timings, banking,
        # policies) through untouched, so newly added knobs never need
        # to be re-listed here.
        return dataclasses.replace(
            self,
            l1i_size=shrink(self.l1i_size),
            l1d_size=shrink(self.l1d_size),
            l2_size=shrink(self.l2_size),
            l3_size=shrink(self.l3_size),
        )




def _decline(addr: int, at: int) -> int:
    """The lane of a system that resolves nothing ahead of ``access``."""
    return -1


class MemorySystem:
    """The CPU-facing interface and the scaffold under every hierarchy.

    One call per dynamic memory operation or I-cache-line fetch:
    :meth:`access` applies all state changes (fills, evictions,
    coherence actions) and returns when the access completes and which
    level serviced it. The CPU attributes stall time from the result.

    A hierarchy is a subclass that calls :meth:`_scaffold` with its
    resolved topology, builds what its coherence discipline adds,
    implements the per-CPU path makers (``_make_ifetch_refill`` /
    ``_make_load_path`` / ``_make_store_path``) and the store lane,
    declares its busy resources (:meth:`_resources`) and checkpoint
    components (:meth:`components`), and finishes with
    :meth:`_build_paths`. Everything else here is shared. A *proxy*
    (the trace recorder, test stubs) skips the scaffold and overrides
    the interface methods it forwards; what it leaves alone declines,
    drains nothing and reports nothing.
    """

    #: short name used in reports (the topology's name once scaffolded)
    name: str = "abstract"

    def __init__(self, config: MemConfig, stats: SystemStats) -> None:
        self.config = config
        self.stats = stats
        #: one-slot cell holding the attached observation (see
        #: :attr:`obs`). The built paths' hooks capture the cell, not
        #: the system: a closure stored on ``self`` that referred back
        #: to ``self`` would make every hierarchy — cache columns and
        #: all — wait for the cyclic collector instead of dying with
        #: its last reference.
        self._obs = [None]
        #: private instruction caches, one per CPU
        self.l1i: list[CacheArray] = []
        #: per-CPU write buffers posted stores drain through
        self._buffers: list[WriteBuffer] = []
        #: per-CPU general paths, each indexed by :class:`AccessKind`
        #: (a proxy builds none: it overrides :meth:`access`)
        self._paths: list[tuple] = []
        #: per-CPU ``(ifetch, load, store)`` fast-lane closures
        self._lanes = [(_decline, _decline, _decline)] * config.n_cpus
        #: per-CPU ``(CacheArray, CacheStats)`` of the L1Ds a spinning
        #: CPU may park on; empty when the discipline has none
        self._spin_ports: list[tuple] = []
        #: the interconnect the CPUs share (a crossbar or the bus): once
        #: observability attaches it emits the contention events and
        #: contributes its ``obs_counters()`` to the sampler
        self._link = None
        self._line_shift = config.line_size.bit_length() - 1

    @property
    def obs(self):
        """The attached :class:`~repro.obs.observe.Observation`, or
        ``None`` (the default — no hook anywhere fires without it)."""
        return self._obs[0]

    @obs.setter
    def obs(self, obs) -> None:
        self._obs[0] = obs

    def _scaffold(self, topology) -> tuple:
        """Build what every hierarchy has; returns the level specs.

        The I-caches and the write-buffer depth have no field in the
        spec and come from the :class:`MemConfig`, like main-memory
        timing does in the disciplines.
        """
        config = self.config
        self.topology = topology
        self.name = topology.name
        self.l1i, self._l1i_stats = self._per_cpu_caches(
            "l1i", config.l1i_size, config.l1i_assoc
        )
        self._buffers = [
            WriteBuffer(config.write_buffer_depth)
            for _ in range(config.n_cpus)
        ]
        return topology.levels

    def _per_cpu_caches(
        self, name: str, size: int, assoc: int
    ) -> tuple[list, list]:
        """One ``cpuN.<name>`` array and stats block per CPU."""
        names = [f"cpu{i}.{name}" for i in range(self.config.n_cpus)]
        line = self.config.line_size
        return (
            [CacheArray(full, size, assoc, line) for full in names],
            [self.stats.cache(full) for full in names],
        )

    def _main_memory(self) -> MainMemory:
        """Main memory, timed by the ``MemConfig`` (no spec field)."""
        config = self.config
        return MainMemory(
            config.mem_latency,
            config.mem_occupancy,
            config.n_mem_banks,
            config.line_size,
        )

    def _reject(self, where: str, field: str, why: str) -> None:
        """Refuse a spec field this discipline cannot honour."""
        raise ConfigError(
            f"topology {self.topology.name!r} ({self.topology.kind}): "
            f"{where} {field} {why}"
        )

    def _require_private_l1d(self, level) -> None:
        """The private L1D contract of the load lane and the spin port:
        one unbanked single-cycle array per CPU."""
        if level.name != "l1d":
            self._reject("first level", "name", "must be 'l1d'")
        if level.arrays(self.config.n_cpus) != self.config.n_cpus:
            self._reject("level 'l1d'", "sharing", "must be 1 (private)")
        for name in ("latency", "occupancy", "banks"):
            if getattr(level, name) != 1:
                self._reject(
                    "level 'l1d'",
                    name,
                    f"must be 1 (a private L1 is one single-cycle array), "
                    f"got {getattr(level, name)}",
                )

    # ------------------------------------------------------------------
    # the general path
    #
    # Like the lanes below, the general paths are per-CPU closures
    # compiled once from the resolved components: each captures its
    # CPU's arrays' probes and fills, ports, write buffer, the
    # discipline's coherence walk and the constants, so an access asks
    # neither which CPU it is nor what shape the hierarchy has, and a
    # miss does each thing once. What a path may capture is what
    # checkpoint restore mutates in place — cache columns, the
    # invalidation sets, write-buffer deques, the directory's map,
    # resources and stats objects; an attached ``Observation`` is read
    # out of the ``_obs`` cell when a hook fires, so attaching one
    # later is seen.

    def access(
        self, cpu: int, kind: AccessKind, addr: int, at: int
    ) -> AccessResult:
        """Perform one access for ``cpu`` starting at cycle ``at``."""
        return self._paths[cpu][kind](addr, at)

    def _build_paths(self) -> None:
        """Compile every CPU's general paths and, unless the config
        turns them off, its fast lanes (off, the declining lanes stay:
        every reference takes :meth:`access`)."""
        cpus = range(self.config.n_cpus)
        self._paths = [
            (
                self._make_ifetch_path(cpu),
                self._make_load_path(cpu),
                self._make_store_path(cpu, posted=True),
                self._make_store_path(cpu, posted=False),
            )
            for cpu in cpus
        ]
        if self.config.l1_fast_path:
            self._lanes = [
                (
                    self._make_ifetch_lane(cpu),
                    self._make_load_lane(cpu),
                    self._make_store_lane(cpu),
                )
                for cpu in cpus
            ]

    def _make_ifetch_path(self, cpu: int):
        """The I-fetch path: the private L1I in front of the
        discipline's ``refill(addr, line_addr, at) -> (done, level)``."""
        cache = self.l1i[cpu]
        probe = cache.make_probe()
        fill = cache.make_fill()
        cache_stats = self._l1i_stats[cpu]
        refill = self._make_ifetch_refill(cpu)
        shift = self._line_shift
        none = StallLevel.NONE

        def ifetch(addr: int, at: int) -> AccessResult:
            line_addr = addr >> shift
            at += 1
            if probe(line_addr) >= 0:
                return new_result(AccessResult, (at, none, -1))
            # Code is never invalidated: every I-miss is a replacement
            # miss.
            cache_stats.read_misses_repl += 1
            done, level = refill(addr, line_addr, at)
            fill(line_addr, SHARED)
            return new_result(AccessResult, (done, level, -1))

        return ifetch

    # ------------------------------------------------------------------
    # L1 hit fast lane
    #
    # The common case by far is an L1 hit: probe the tag dict, refresh
    # LRU, bump a counter, done one cycle later. The lanes resolve
    # exactly that case and return the completion cycle as a plain int;
    # they return -1 (no state changed) whenever anything beyond the
    # single-probe hit is involved — a miss, an upgrade, a coherence
    # action — and the CPU falls back to :meth:`access`. Lanes must be
    # behaviorally invisible: with them left declining
    # (``config.l1_fast_path = False``) every statistic and cycle count
    # must come out identical. They are per-CPU closures specialized
    # when the system is built, so nothing on the per-access path asks
    # what shape the hierarchy has. A proxy that forwards nothing keeps
    # the declining lanes and still sees the full stream through
    # access(); one that cares about speed (the trace recorder) wraps
    # the inner system's lanes in its own ``fast_lanes``.

    def _make_ifetch_lane(self, cpu: int):
        return self.l1i[cpu].make_read_lane()

    def _make_load_lane(self, cpu: int):
        """A private single-cycle L1D hit. Loads never change coherence
        state on a hit, so the lane is state-blind; a miss returns -1
        with nothing touched (the general path re-probes — a missing
        probe does not mutate, so the double probe is invisible)."""
        return self.l1d[cpu].make_read_lane(self._l1d_stats[cpu])

    def _make_store_lane(self, cpu: int):
        """The posted-store lane; a discipline without one declines."""
        return _decline

    def fast_lanes(self, cpu: int) -> tuple:
        """Per-CPU fast-lane closures ``(ifetch, load, store)`` — the
        only way to reach the lanes.

        Each closure takes ``(addr, at)`` and returns the completion
        cycle or -1 (take :meth:`access`). Only a *posted, value-less*
        store may take the store lane: its int carries the CPU-release
        cycle but not the visibility time a value publish would need.
        The CPU models bind these once at construction so the
        per-access cost is one call with the probe constants captured
        as cell variables.
        """
        return self._lanes[cpu]

    def spin_port(self, cpu: int):
        """``(CacheArray, CacheStats)`` of ``cpu``'s L1D when a load
        that hits there is private and single-cycle, else ``None``.

        Declaring the port promises that :meth:`fast_lanes`' load lane,
        on a resident line, does exactly ``stats.reads += 1`` plus one
        LRU touch and returns ``at + 1``, and that nothing but
        ``cpu``'s own accesses and :meth:`CacheArray.evict
        <repro.mem.cache.CacheArray.evict>` changes what is resident —
        which is what lets the run loop account for a parked spin
        loop's iterations arithmetically instead of issuing them. A
        discipline grants it by filling ``_spin_ports``: private L1Ds
        kept coherent by invalidation qualify, a shared L1 or
        write-update (a copy's value changes without the line leaving)
        does not. A system that declines still has every spin
        iteration's load issued through its lanes.
        """
        return self._spin_ports[cpu] if self._spin_ports else None

    def spin_settled(self, cpu: int, addr: int, loads: int) -> None:
        """``loads`` reads of ``addr`` that ``cpu``'s parked spin loop
        settled on its :meth:`spin_port` instead of issuing through the
        load lane. The port already counted them; nothing to do here —
        a proxy that notes references (the trace recorder) does."""

    def line_addr(self, addr: int) -> int:
        """Line address of a byte address under this configuration."""
        return addr >> self._line_shift

    def drain(self, at: int) -> int:
        """Cycle by which all posted work (write buffers) completes."""
        latest = at
        for buffer in self._buffers:
            t = buffer.drain_time(at)
            if t > latest:
                latest = t
        return latest

    # ------------------------------------------------------------------
    # declared resources: utilization report, sampler probes, checkpoint

    def _resources(self, probing: bool = False):
        """Yield ``(report key, probe name, resource)`` for every busy
        timeline (port, bank, switch, bus, memory) the discipline owns.

        Either name may be ``None`` to leave the resource out of
        :meth:`resource_report` or :meth:`obs_probes`; ``probing`` is
        set for the latter, for the one discipline whose probes watch a
        different object than its report.
        """
        return ()

    def resource_report(self, cycles: int) -> dict[str, float]:
        """Utilization (busy fraction of ``cycles``) per shared resource.

        Keys are short resource names: the ports, banks, buses and
        memory modules that can bottleneck the hierarchy. Used by the
        CLI and the reports to show *where* the time went, not just how
        much.
        """
        return {
            key: resource.busy_cycles / cycles if cycles else 0.0
            for key, _probe, resource in self._resources()
            if key is not None
        }

    def attach_obs(self, obs) -> None:
        """Attach an :class:`~repro.obs.observe.Observation` and wire
        the shared link for its contention / transaction events."""
        self.obs = obs
        if self._link is not None:
            self._link.obs = obs

    def obs_probes(self) -> list[tuple]:
        """Sampler probes as ``(kind, name, fn)`` tuples.

        ``kind`` is ``"rate"`` (cumulative counter, sampled as
        delta-per-cycle) or ``"gauge"`` (instantaneous value). Called
        once, after :meth:`attach_obs`: the link's counters, every
        declared resource's busy cycles and each write buffer's fill.
        """
        probes = []
        if self._link is not None:
            probes += [
                ("rate", name, fn) for name, fn in self._link.obs_counters()
            ]
        for _key, name, resource in self._resources(probing=True):
            if name is not None:
                probes.append(
                    ("rate", name, lambda r=resource: r.busy_cycles)
                )
        for index, buffer in enumerate(self._buffers):
            probes.append(
                ("gauge", f"cpu{index}.wb", lambda b=buffer: b.occupancy)
            )
        return probes

    def components(self) -> dict:
        """Checkpoint wire name → live component, for every piece of
        simulation state the system owns.

        :mod:`repro.ckpt.snapshot` serializes exactly this mapping (in
        sorted-name order) and restores into it; statistics, the
        configuration and the lanes (pure code over the arrays) travel
        elsewhere or not at all. The names are the ``repro.ckpt/1``
        wire format: a discipline extends the mapping and must keep
        them stable. Plain ints are geometry constants recorded so a
        restore can refuse a differently-shaped target.
        """
        return {"l1i": self.l1i, "_line_shift": self._line_shift}
