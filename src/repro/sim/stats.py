"""Statistics containers shared by every component of the simulator.

Two reporting views matter for the paper:

* the **Mipsy view** (Figures 4-10): per-CPU execution-time breakdown into
  CPU-busy cycles and stall cycles attributed to the level of the memory
  hierarchy that serviced the access, plus local cache miss rates broken
  into replacement (L1R/L2R) and invalidation (L1I/L2I) components;
* the **MXS view** (Figure 11): IPC plus lost issue slots attributed to
  instruction-cache stalls, data-cache stalls, and pipeline stalls.

The containers here are plain attribute bags — the CPU and cache models
increment attributes directly in their hot loops, except that a Mipsy
data stall is charged through :meth:`CycleBreakdown.charge`, the one
map from serving level to bucket.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class CacheStats:
    """Counters for one cache (or one bank group reported as a unit)."""

    name: str = ""
    reads: int = 0
    writes: int = 0
    read_misses_repl: int = 0
    read_misses_inval: int = 0
    write_misses_repl: int = 0
    write_misses_inval: int = 0
    writebacks: int = 0
    evictions: int = 0
    invalidations_received: int = 0
    updates_received: int = 0
    write_throughs: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def misses_repl(self) -> int:
        return self.read_misses_repl + self.write_misses_repl

    @property
    def misses_inval(self) -> int:
        return self.read_misses_inval + self.write_misses_inval

    @property
    def misses(self) -> int:
        return self.misses_repl + self.misses_inval

    @property
    def miss_rate(self) -> float:
        """Local miss rate: misses per reference to this cache."""
        accesses = self.accesses
        return self.misses / accesses if accesses else 0.0

    @property
    def miss_rate_repl(self) -> float:
        accesses = self.accesses
        return self.misses_repl / accesses if accesses else 0.0

    @property
    def miss_rate_inval(self) -> float:
        accesses = self.accesses
        return self.misses_inval / accesses if accesses else 0.0

    def merged_with(self, other: "CacheStats") -> "CacheStats":
        """Return a new ``CacheStats`` summing every counter of this one
        with ``other`` (the name is this one's)."""
        return CacheStats(name=self.name, **{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
            if f.name != "name"
        })

    def to_dict(self) -> dict:
        """Every counter, keyed by field name (cache/IPC round-trips)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "CacheStats":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


@dataclass
class CycleBreakdown:
    """Per-CPU Mipsy execution-time breakdown.

    ``busy`` counts cycles in which the CPU executed an instruction
    (including spin-loop iterations that hit in the cache, matching the
    paper's convention that synchronization wait shows up as CPU time).
    The stall attributes count cycles the CPU was stalled waiting for
    the memory system, attributed to the serving level.
    """

    busy: int = 0
    istall: int = 0
    l1d: int = 0
    l2: int = 0
    mem: int = 0
    c2c: int = 0
    storebuf: int = 0

    _FIELDS = ("busy", "istall", "l1d", "l2", "mem", "c2c", "storebuf")

    #: The one map from serving level to bucket, indexed by
    #: :class:`~repro.mem.types.StallLevel` (NONE, L1, L2, MEM, C2C,
    #: STOREBUF; positional because ``repro.mem`` imports this
    #: module): time beyond one cycle that no deeper level explains
    #: is L1 time. An instruction-fetch miss is ``istall`` whatever
    #: served it, and ``busy`` is one cycle per instruction.
    _BUCKET = ("l1d", "l1d", "l2", "mem", "c2c", "storebuf")

    @property
    def total(self) -> int:
        return sum(getattr(self, name) for name in self._FIELDS)

    @property
    def memory_stall(self) -> int:
        """All stall cycles, i.e. everything but CPU-busy time."""
        return self.total - self.busy

    def charge(self, level: int, cycles: int) -> None:
        """Charge ``cycles`` of data-access stall to the bucket of the
        :class:`~repro.mem.types.StallLevel` that served the access."""
        bucket = self._BUCKET[level]
        setattr(self, bucket, getattr(self, bucket) + cycles)

    def as_dict(self) -> dict[str, int]:
        """The breakdown as a plain dict (reporting/serialization)."""
        return {name: getattr(self, name) for name in self._FIELDS}

    def merged_with(self, other: "CycleBreakdown") -> "CycleBreakdown":
        """A new breakdown summing this one with ``other``."""
        merged = CycleBreakdown()
        for name in self._FIELDS:
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged

    @classmethod
    def from_dict(cls, data: dict) -> "CycleBreakdown":
        """Inverse of :meth:`as_dict`."""
        return cls(**{name: data.get(name, 0) for name in cls._FIELDS})


@dataclass
class MxsStats:
    """Per-CPU MXS (dynamic superscalar) accounting for Figure 11.

    Issue-slot losses: with a 2-way machine, every cycle offers two
    graduation slots; slots not filled are attributed to the cause that
    blocked the head of the reorder buffer.
    """

    cycles: int = 0
    graduated: int = 0
    slots_lost_icache: int = 0
    slots_lost_dcache: int = 0
    slots_lost_pipeline: int = 0
    fetched: int = 0
    branches: int = 0
    mispredicts: int = 0
    squashed: int = 0
    issued: int = 0
    window_occupancy_sum: int = 0
    fetch_stall_cycles: int = 0

    @property
    def ipc(self) -> float:
        return self.graduated / self.cycles if self.cycles else 0.0

    @property
    def slots_total(self) -> int:
        return (
            self.graduated
            + self.slots_lost_icache
            + self.slots_lost_dcache
            + self.slots_lost_pipeline
        )

    def ipc_loss(self, width: int = 2) -> dict[str, float]:
        """IPC lost to each cause, scaled so components sum to
        ``width - ipc`` (the paper's Figure 11 stacking)."""
        if not self.cycles:
            return {"icache": 0.0, "dcache": 0.0, "pipeline": 0.0}
        lost_slots = (
            self.slots_lost_icache
            + self.slots_lost_dcache
            + self.slots_lost_pipeline
        )
        headroom = width - self.ipc
        if lost_slots == 0:
            return {"icache": 0.0, "dcache": 0.0, "pipeline": headroom}
        scale = headroom / (lost_slots / self.cycles)
        return {
            "icache": scale * self.slots_lost_icache / self.cycles,
            "dcache": scale * self.slots_lost_dcache / self.cycles,
            "pipeline": scale * self.slots_lost_pipeline / self.cycles,
        }

    @property
    def mean_window_occupancy(self) -> float:
        """Average instructions resident in the window/ROB per cycle."""
        return (
            self.window_occupancy_sum / self.cycles if self.cycles else 0.0
        )

    @property
    def fetch_stall_fraction(self) -> float:
        """Fraction of cycles the fetch stage could not fetch."""
        return self.fetch_stall_cycles / self.cycles if self.cycles else 0.0

    def to_dict(self) -> dict:
        """Every counter, keyed by field name (cache/IPC round-trips)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "MxsStats":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


@dataclass
class SystemStats:
    """Everything a simulation run reports.

    ``breakdowns`` and ``mxs`` are indexed by CPU id; ``caches`` maps a
    cache name (e.g. ``"cpu0.l1d"``, ``"shared.l2"``) to its counters.
    """

    n_cpus: int = 0
    cycles: int = 0
    instructions: int = 0
    breakdowns: list[CycleBreakdown] = field(default_factory=list)
    mxs: list[MxsStats] = field(default_factory=list)
    caches: dict[str, CacheStats] = field(default_factory=dict)
    bus_busy_cycles: int = 0
    c2c_transfers: int = 0

    @classmethod
    def for_cpus(cls, n_cpus: int) -> "SystemStats":
        return cls(
            n_cpus=n_cpus,
            breakdowns=[CycleBreakdown() for _ in range(n_cpus)],
            mxs=[MxsStats() for _ in range(n_cpus)],
        )

    def cache(self, name: str) -> CacheStats:
        """Get (or create) the counters for cache ``name``."""
        stats = self.caches.get(name)
        if stats is None:
            stats = CacheStats(name=name)
            self.caches[name] = stats
        return stats

    def aggregate_breakdown(self) -> CycleBreakdown:
        """Sum of all per-CPU breakdowns."""
        merged = CycleBreakdown()
        for breakdown in self.breakdowns:
            merged = merged.merged_with(breakdown)
        return merged

    def aggregate_caches(self, suffix: str) -> CacheStats:
        """Merge every cache whose name ends with ``suffix``.

        Used to report, e.g., the combined L1 data miss rate across all
        four private caches (``suffix=".l1d"``).
        """
        merged = CacheStats(name=f"*{suffix}")
        for name, stats in sorted(self.caches.items()):
            if name.endswith(suffix):
                merged = merged.merged_with(stats)
                merged.name = f"*{suffix}"
        return merged

    @property
    def ipc(self) -> float:
        """Aggregate instructions per cycle over the whole machine."""
        return self.instructions / self.cycles if self.cycles else 0.0

    def to_dict(self) -> dict:
        """Full-fidelity dump of every counter in the run.

        Unlike the *summary* emitted by
        :meth:`repro.core.experiment.ExperimentResult.to_dict`'s derived
        fields, this captures the complete state — per-CPU breakdowns,
        per-CPU MXS counters, and every named cache — so
        :meth:`from_dict` reconstructs an equivalent ``SystemStats``.
        The experiment runner's on-disk result cache depends on this
        round-trip being exact.
        """
        return {
            "n_cpus": self.n_cpus,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "breakdowns": [b.as_dict() for b in self.breakdowns],
            "mxs": [m.to_dict() for m in self.mxs],
            "caches": {
                name: stats.to_dict()
                for name, stats in sorted(self.caches.items())
            },
            "bus_busy_cycles": self.bus_busy_cycles,
            "c2c_transfers": self.c2c_transfers,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SystemStats":
        """Inverse of :meth:`to_dict`."""
        return cls(
            n_cpus=data["n_cpus"],
            cycles=data["cycles"],
            instructions=data["instructions"],
            breakdowns=[
                CycleBreakdown.from_dict(b) for b in data["breakdowns"]
            ],
            mxs=[MxsStats.from_dict(m) for m in data["mxs"]],
            caches={
                name: CacheStats.from_dict(c)
                for name, c in data["caches"].items()
            },
            bus_busy_cycles=data["bus_busy_cycles"],
            c2c_transfers=data["c2c_transfers"],
        )
