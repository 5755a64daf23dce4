"""Memory-system configuration and the common interface.

:class:`MemConfig` collects every geometry and timing knob the
topology presets draw from; the scale presets in
:mod:`repro.core.configs` fill it in with the paper's Table 2 numbers.
:class:`MemorySystem` is the interface the CPU models drive.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.mem.bus import BusTiming
from repro.mem.types import AccessKind, AccessResult
from repro.sim.stats import CacheStats, MissKind, SystemStats


def count_miss(
    cache_stats: CacheStats, miss_kind: MissKind, is_store: bool
) -> None:
    """Record a classified miss in the right CacheStats bucket."""
    if miss_kind == MissKind.MISS_INVALIDATION:
        if is_store:
            cache_stats.write_misses_inval += 1
        else:
            cache_stats.read_misses_inval += 1
    else:
        if is_store:
            cache_stats.write_misses_repl += 1
        else:
            cache_stats.read_misses_repl += 1


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
    mshr_entries: int = 4

    # Mipsy runs the shared-L1 architecture optimistically (1-cycle hit,
    # no bank contention) per Section 4; MXS turns this off.
    shared_l1_optimistic: bool = False

    # Resolve L1 hits through the single-probe fast lane
    # (``MemorySystem.fast_load`` / ``fast_ifetch``). Behaviorally
    # invisible; exists so the differential tests can force the general
    # path and assert identical statistics.
    l1_fast_path: bool = True

    # Shared-L2 L1 coherence policy (Section 2.3: "all processors
    # caching the line must receive invalidates or updates").
    # "invalidate" drops remote copies; "update" refreshes them in
    # place — spinners keep hitting locally but every write busies the
    # sharers' caches.
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


class MemorySystem(ABC):
    """Interface between the CPU models and a memory architecture.

    One call per dynamic memory operation or I-cache-line fetch:
    :meth:`access` applies all state changes (fills, evictions,
    coherence actions) and returns when the access completes and which
    level serviced it. The CPU attributes stall time from the result.
    """

    #: short name used in reports (the topology preset name)
    name: str = "abstract"

    #: whether CPU models may retire runs of compute instructions ahead
    #: of the run loop (Mipsy's batching, and the back-branch of a
    #: declared spin loop). True for the real memory systems — their
    #: fast lanes are pure timing closures — but a proxy that counts
    #: lane calls in cross-CPU issue order (a limited trace recorder)
    #: must see the unbatched stream.
    batchable: bool = True

    def __init__(self, config: MemConfig, stats: SystemStats) -> None:
        self.config = config
        self.stats = stats
        #: attached :class:`~repro.obs.observe.Observation`, or ``None``
        #: (the default — no hook anywhere fires without it)
        self.obs = None

    @abstractmethod
    def access(
        self, cpu: int, kind: AccessKind, addr: int, at: int
    ) -> AccessResult:
        """Perform one access for ``cpu`` starting at cycle ``at``."""

    # ------------------------------------------------------------------
    # L1 hit fast lane
    #
    # The common case by far is an L1 hit: probe the tag dict, refresh
    # LRU, bump a counter, done one cycle later. The fast methods
    # resolve exactly that case and return the completion cycle as a
    # plain int; they return -1 (no state changed) whenever anything
    # beyond the single-probe hit is involved — a miss, an upgrade, a
    # coherence action — and the CPU falls back to :meth:`access`.
    # Implementations must be behaviorally invisible: with the lane
    # disabled (``config.l1_fast_path = False``) every statistic and
    # cycle count must come out identical. The defaults below decline
    # every access, so a wrapper that overrides nothing still sees the
    # full stream through access() — at the cost of silently disabling
    # the lane; wrappers that care about speed (the trace recorder)
    # forward the fast methods and record the hits they resolve.

    def fast_load(self, cpu: int, addr: int, at: int) -> int:
        """L1 hit fast path for a data load; -1 means take ``access``."""
        return -1

    def fast_ifetch(self, cpu: int, addr: int, at: int) -> int:
        """L1 hit fast path for an I-fetch; -1 means take ``access``."""
        return -1

    def fast_store(self, cpu: int, addr: int, at: int) -> int:
        """L1 hit fast path for a *posted, value-less* store.

        Only stores with no functional value may take this lane (the
        int return carries the CPU-release cycle but not the visibility
        time a value publish would need); -1 means take ``access``.
        """
        return -1

    def fast_lanes(self, cpu):
        """Per-CPU fast-lane closures ``(ifetch, load, store)``.

        Each closure takes ``(addr, at)`` and returns the completion
        cycle or -1 (same contract as the ``fast_*`` methods). The CPU
        models bind these once at construction so the per-access cost
        is one call with the probe constants captured as cell
        variables. The default adapts the ``fast_*`` methods, so a
        wrapper that only overrides those still works; systems with a
        real lane build specialized closures instead.
        """
        fast_ifetch = self.fast_ifetch
        fast_load = self.fast_load
        fast_store = self.fast_store
        return (
            lambda addr, at: fast_ifetch(cpu, addr, at),
            lambda addr, at: fast_load(cpu, addr, at),
            lambda addr, at: fast_store(cpu, addr, at),
        )

    def spin_port(self, cpu: int):
        """``(CacheArray, CacheStats)`` of ``cpu``'s L1D when a load
        that hits there is private and single-cycle, else ``None``.

        Declaring the port promises that :meth:`fast_lanes`' load lane,
        on a resident line, does exactly ``stats.reads += 1`` plus one
        LRU touch and returns ``at + 1``, and that nothing but
        ``cpu``'s own accesses and :meth:`CacheArray.evict
        <repro.mem.cache.CacheArray.evict>` changes what is resident —
        which is what lets the run loop account for a parked spin
        loop's iterations arithmetically instead of issuing them. The
        default declines; a system that declines still has every spin
        iteration's load issued through its lanes.
        """
        return None

    def line_addr(self, addr: int) -> int:
        """Line address of a byte address under this configuration."""
        return addr // self.config.line_size

    def drain(self, at: int) -> int:
        """Cycle by which all posted work (write buffers) completes."""
        return at

    def resource_report(self, cycles: int) -> dict[str, float]:
        """Utilization (busy fraction of ``cycles``) per shared resource.

        Keys are short resource names; implementations report the
        ports, banks, buses and memory modules that can bottleneck
        them. Used by the CLI and the reports to show *where* the time
        went, not just how much.
        """
        return {}

    # ------------------------------------------------------------------
    # observability (opt-in; see repro.obs)

    def attach_obs(self, obs) -> None:
        """Attach an :class:`~repro.obs.observe.Observation`.

        Subclasses override to wire their interconnects (crossbar, bus)
        and to build any obs-only shadow resources, then call this base
        to store the reference.
        """
        self.obs = obs

    def obs_probes(self) -> list[tuple]:
        """Sampler probes as ``(kind, name, fn)`` tuples.

        ``kind`` is ``"rate"`` (cumulative counter, sampled as
        delta-per-cycle) or ``"gauge"`` (instantaneous value). Called
        once, after :meth:`attach_obs`. The default exposes nothing.
        """
        return []
