"""Composable machine topologies.

Historically the simulator knew exactly three architectures, dispatched
on the strings ``shared-l1`` / ``shared-l2`` / ``shared-mem``. This
module replaces that hard-wiring with a declarative :class:`Topology`
spec — core count, a cache level list (size/associativity/latency/
banking/sharing per level) and an interconnect description — plus two
registries:

* **presets** (:func:`register_topology`): named factories that derive
  a ``Topology`` from a :class:`~repro.mem.hierarchy.MemConfig`, so a
  preset follows the scaled test/bench/paper geometries automatically.
  The paper's three architectures are presets here, and so are the
  scenario topologies the ROADMAP targets (a 16-core shared-L1 cluster
  with a multi-stage crossbar, and a 3-level private-L1/private-L2/
  shared-L3 hierarchy).
* **builders** (:func:`register_builder`): constructors keyed by the
  spec's ``kind`` that turn a resolved ``Topology`` into a live
  :class:`~repro.mem.hierarchy.MemorySystem`. A kind names a coherence
  discipline — the paper's three places to share: the primary cache, a
  lower cache level, the memory bus — and the discipline builds the
  whole machine from the rest of the spec, honouring every field or
  refusing it with a ``ConfigError``.

Everything downstream — ``System``, the runner's cache keys, sweeps,
figures, checkpointing, observability, the CLI — consumes topologies
through :func:`resolve_topology` / :func:`build_topology`; no other
module branches on an architecture name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigError
from repro.mem.hierarchy import MemConfig, MemorySystem
from repro.mem.shared_mem import SharedMemorySystem
from repro.mem.shared_primary import SharedPrimarySystem
from repro.mem.shared_secondary import SharedSecondarySystem
from repro.sim.stats import SystemStats

#: CPUs sharing one cache array when every CPU shares it.
SHARED_BY_ALL = 0


@dataclass(frozen=True)
class CacheLevel:
    """One level of the cache hierarchy.

    ``sharing`` is the number of CPUs mapped onto each array:
    ``1`` means private per CPU, :data:`SHARED_BY_ALL` (``0``) means a
    single array shared by every CPU. ``size`` is bytes *per array*.
    """

    name: str
    size: int
    assoc: int
    latency: int
    occupancy: int = 1
    banks: int = 1
    sharing: int = 1
    write_policy: str = "writeback"

    def validate(self, n_cpus: int) -> None:
        """Raise ConfigError on an inconsistent level description."""
        if self.size <= 0:
            raise ConfigError(f"level {self.name!r}: size must be positive")
        if self.assoc <= 0:
            raise ConfigError(f"level {self.name!r}: assoc must be positive")
        if self.latency <= 0 or self.occupancy <= 0:
            raise ConfigError(
                f"level {self.name!r}: latency and occupancy must be positive"
            )
        if self.banks <= 0 or self.banks & (self.banks - 1):
            raise ConfigError(
                f"level {self.name!r}: banks must be a power of two"
            )
        if self.sharing < 0:
            raise ConfigError(f"level {self.name!r}: sharing must be >= 0")
        if self.sharing > 0 and n_cpus % self.sharing:
            raise ConfigError(
                f"level {self.name!r}: sharing {self.sharing} does not "
                f"divide {n_cpus} CPUs"
            )
        if self.write_policy not in ("writeback", "writethrough"):
            raise ConfigError(
                f"level {self.name!r}: unknown write policy "
                f"{self.write_policy!r}"
            )

    def arrays(self, n_cpus: int) -> int:
        """Number of physical arrays this level has for ``n_cpus``."""
        return 1 if self.sharing == SHARED_BY_ALL else n_cpus // self.sharing

    def to_dict(self) -> dict:
        """JSON-ready payload (cache keys, snapshots, the CLI)."""
        return {
            "name": self.name,
            "size": self.size,
            "assoc": self.assoc,
            "latency": self.latency,
            "occupancy": self.occupancy,
            "banks": self.banks,
            "sharing": self.sharing,
            "write_policy": self.write_policy,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CacheLevel":
        """Rebuild a level from its ``to_dict`` payload."""
        return cls(**data)


@dataclass(frozen=True)
class Interconnect:
    """How CPUs reach the first shared resource.

    ``kind`` is ``crossbar`` (one stage), ``multistage`` (several, one
    switch column per intermediate stage) or ``bus``;
    ``stage_latencies`` lists the per-stage pipeline delays a request
    crosses (their sum is the interconnect's latency) and
    ``occupancy`` how long each resource on the path is held. The
    coherence discipline builds the interconnect from these and
    refuses a kind it does not have or one that disagrees with the
    stage count.
    """

    kind: str = "direct"
    stage_latencies: tuple = ()
    occupancy: int = 1

    @property
    def latency(self) -> int:
        return sum(self.stage_latencies)

    def validate(self) -> None:
        """Raise ConfigError on an inconsistent interconnect description."""
        if any(lat <= 0 for lat in self.stage_latencies):
            raise ConfigError("interconnect stage latencies must be positive")
        if self.occupancy <= 0:
            raise ConfigError("interconnect occupancy must be positive")

    def to_dict(self) -> dict:
        """JSON-ready payload (cache keys, snapshots, the CLI)."""
        return {
            "kind": self.kind,
            "stage_latencies": list(self.stage_latencies),
            "occupancy": self.occupancy,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Interconnect":
        """Rebuild an interconnect from its ``to_dict`` payload."""
        return cls(
            kind=data["kind"],
            stage_latencies=tuple(data["stage_latencies"]),
            occupancy=data["occupancy"],
        )


@dataclass(frozen=True)
class Topology:
    """A complete machine shape: cores, cache levels, interconnect.

    ``kind`` selects the coherence discipline that builds the machine
    from the rest of the spec (see :func:`register_builder`);
    ``name`` is the identity used in reports, cache keys and snapshot
    metadata. Two runs with equal ``to_dict()`` payloads simulate the
    same machine.
    """

    name: str
    kind: str
    n_cpus: int
    levels: tuple
    interconnect: Interconnect = field(default_factory=Interconnect)
    description: str = ""

    def validate(self) -> None:
        """Raise ConfigError on an inconsistent topology."""
        if self.n_cpus <= 0:
            raise ConfigError("topology n_cpus must be positive")
        if not self.levels:
            raise ConfigError("topology needs at least one cache level")
        for level in self.levels:
            level.validate(self.n_cpus)
        self.interconnect.validate()

    def level(self, name: str) -> CacheLevel:
        """The cache level called ``name`` (ConfigError if absent)."""
        for level in self.levels:
            if level.name == name:
                return level
        raise ConfigError(f"topology {self.name!r} has no level {name!r}")

    def to_dict(self) -> dict:
        """Deterministic JSON-ready payload (cache keys, snapshots)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "n_cpus": self.n_cpus,
            "levels": [level.to_dict() for level in self.levels],
            "interconnect": self.interconnect.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Topology":
        """Rebuild a topology from its ``to_dict`` payload."""
        return cls(
            name=data["name"],
            kind=data["kind"],
            n_cpus=data["n_cpus"],
            levels=tuple(
                CacheLevel.from_dict(level) for level in data["levels"]
            ),
            interconnect=Interconnect.from_dict(data["interconnect"]),
        )


# ---------------------------------------------------------------------------
# builder registry: topology.kind -> MemorySystem constructor

_BUILDERS: dict[str, Callable[[Topology, MemConfig, SystemStats],
                              MemorySystem]] = {
    "shared-primary": SharedPrimarySystem,
    "shared-secondary": SharedSecondarySystem,
    "shared-memory": SharedMemorySystem,
}


def register_builder(kind: str):
    """Class decorator registering a builder for a topology ``kind``."""

    def decorate(fn):
        _BUILDERS[kind] = fn
        return fn

    return decorate


def get_builder(kind: str):
    """The builder registered for ``kind`` (ConfigError if absent)."""
    try:
        return _BUILDERS[kind]
    except KeyError:
        raise ConfigError(
            f"no builder registered for topology kind {kind!r}; "
            f"known kinds: {sorted(_BUILDERS)}"
        ) from None


def build_topology(
    topology: Topology, config: MemConfig, stats: SystemStats
) -> MemorySystem:
    """Instantiate the memory system a resolved topology describes."""
    topology.validate()
    return get_builder(topology.kind)(topology, config, stats)


# ---------------------------------------------------------------------------
# preset registry: name -> Topology factory


@dataclass(frozen=True)
class TopologyPreset:
    """A named topology recipe parameterized by core count and config."""

    name: str
    kind: str
    default_cpus: int
    description: str
    factory: Callable[[int, MemConfig], Topology]

    def resolve(self, config: MemConfig) -> Topology:
        """The concrete spec this preset describes under ``config``."""
        return self.factory(config.n_cpus, config)


_PRESETS: dict[str, TopologyPreset] = {}


def register_topology(
    name: str, kind: str, default_cpus: int, description: str
):
    """Decorator registering a preset factory ``(n_cpus, config) ->
    Topology`` under ``name``."""

    def decorate(factory):
        _PRESETS[name] = TopologyPreset(
            name=name,
            kind=kind,
            default_cpus=default_cpus,
            description=description,
            factory=factory,
        )
        return factory

    return decorate


def topology_names() -> tuple:
    """Every registered preset name, paper presets first."""
    rest = [n for n in _PRESETS if n not in PAPER_TOPOLOGIES]
    return PAPER_TOPOLOGIES + tuple(rest)


def get_preset(name: str) -> TopologyPreset:
    """The registered preset called ``name`` (ConfigError if absent)."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown topology {name!r}; known presets: "
            f"{', '.join(topology_names())}"
        ) from None


def natural_cpus(arch) -> int:
    """What an omitted CPU count means for ``arch``: a
    :class:`Topology` object's own count, else its preset's natural
    ``default_cpus``."""
    if isinstance(arch, Topology):
        return arch.n_cpus
    return get_preset(arch).default_cpus


def resolve_topology(arch, config: MemConfig) -> Topology:
    """Resolve an architecture selector into a concrete spec.

    ``arch`` is either a preset name (resolved against ``config``, so
    scaled geometries carry through) or an explicit :class:`Topology`
    (validated against the config's CPU count).
    """
    if isinstance(arch, Topology):
        if arch.n_cpus != config.n_cpus:
            raise ConfigError(
                f"topology {arch.name!r} was built for {arch.n_cpus} CPUs "
                f"but the memory config has {config.n_cpus}"
            )
        arch.validate()
        return arch
    topology = get_preset(arch).resolve(config)
    topology.validate()
    return topology


# ---------------------------------------------------------------------------
# the paper's three architectures as presets

#: The paper's architectures, in its presentation order. The topology
#: engine treats them as ordinary presets; this tuple exists for the
#: paper-reproduction pipeline (figures, claims, selfcheck).
PAPER_TOPOLOGIES = ("shared-l1", "shared-l2", "shared-mem")


@register_topology(
    "shared-l1",
    kind="shared-primary",
    default_cpus=4,
    description=(
        "one crossbar-banked shared L1 data cache over a unified L2 "
        "(paper Section 2.2)"
    ),
)
def _shared_l1_topology(n_cpus: int, config: MemConfig) -> Topology:
    return Topology(
        name="shared-l1",
        kind="shared-primary",
        n_cpus=n_cpus,
        levels=(
            CacheLevel(
                name="l1d",
                size=config.l1d_size * n_cpus,
                assoc=config.l1d_assoc,
                latency=config.shared_l1_latency,
                occupancy=config.l1_occupancy,
                banks=config.n_l1_banks,
                sharing=SHARED_BY_ALL,
            ),
            CacheLevel(
                name="l2",
                size=config.l2_size,
                assoc=config.l2_assoc,
                latency=config.l2_latency,
                occupancy=config.l2_occupancy,
                sharing=SHARED_BY_ALL,
            ),
        ),
        interconnect=Interconnect(
            kind="crossbar",
            stage_latencies=(config.shared_l1_latency,),
            occupancy=config.l1_occupancy,
        ),
        description="shared primary cache",
    )


@register_topology(
    "shared-l2",
    kind="shared-secondary",
    default_cpus=4,
    description=(
        "private write-through L1s over a crossbar-banked shared L2 "
        "with directory coherence (paper Section 2.3)"
    ),
)
def _shared_l2_topology(n_cpus: int, config: MemConfig) -> Topology:
    return Topology(
        name="shared-l2",
        kind="shared-secondary",
        n_cpus=n_cpus,
        levels=(
            CacheLevel(
                name="l1d",
                size=config.l1d_size,
                assoc=config.l1d_assoc,
                latency=config.l1_latency,
                occupancy=config.l1_occupancy,
                write_policy="writethrough",
            ),
            CacheLevel(
                name="l2",
                size=config.l2_size,
                assoc=config.l2_assoc,
                latency=config.shared_l2_latency,
                occupancy=config.shared_l2_occupancy,
                banks=config.n_l2_banks,
                sharing=SHARED_BY_ALL,
            ),
        ),
        interconnect=Interconnect(
            kind="crossbar",
            stage_latencies=(config.shared_l2_latency,),
            occupancy=config.shared_l2_occupancy,
        ),
        description="shared secondary cache",
    )


@register_topology(
    "shared-mem",
    kind="shared-memory",
    default_cpus=4,
    description=(
        "fully private cache hierarchies over a snoopy MESI bus "
        "(paper Section 2.4)"
    ),
)
def _shared_mem_topology(n_cpus: int, config: MemConfig) -> Topology:
    return Topology(
        name="shared-mem",
        kind="shared-memory",
        n_cpus=n_cpus,
        levels=(
            CacheLevel(
                name="l1d",
                size=config.l1d_size,
                assoc=config.l1d_assoc,
                latency=config.l1_latency,
                occupancy=config.l1_occupancy,
            ),
            CacheLevel(
                name="l2",
                size=config.l2_size,
                assoc=config.l2_assoc,
                latency=config.l2_latency,
                occupancy=config.l2_occupancy,
            ),
        ),
        interconnect=Interconnect(
            kind="bus",
            stage_latencies=(config.bus.mem_latency,),
            occupancy=config.bus.mem_occupancy,
        ),
        description="shared memory bus",
    )


# ---------------------------------------------------------------------------
# scenario presets (ROADMAP: MemPool-style cluster, 3D-stacked L3)


@register_topology(
    "cluster-l1",
    kind="shared-primary",
    default_cpus=16,
    description=(
        "16-core MemPool-style cluster: one pooled L1 data cache "
        "behind a two-stage radix-4 crossbar (arXiv 2012.02973)"
    ),
)
def _cluster_l1_topology(n_cpus: int, config: MemConfig) -> Topology:
    # The pooled L1 keeps per-core capacity constant and spreads it
    # over at least one bank per four cores so bank conflicts stay
    # rare at scale; the two-stage interconnect costs 2+2 cycles.
    banks = max(config.n_l1_banks, _next_pow2(max(n_cpus // 4, 1)))
    return Topology(
        name="cluster-l1",
        kind="shared-primary",
        n_cpus=n_cpus,
        levels=(
            CacheLevel(
                name="l1d",
                size=config.l1d_size * n_cpus,
                assoc=config.l1d_assoc,
                latency=4,
                occupancy=config.l1_occupancy,
                banks=banks,
                sharing=SHARED_BY_ALL,
            ),
            CacheLevel(
                name="l2",
                size=config.l2_size,
                assoc=config.l2_assoc,
                latency=config.l2_latency,
                occupancy=config.l2_occupancy,
                sharing=SHARED_BY_ALL,
            ),
        ),
        interconnect=Interconnect(
            kind="multistage",
            stage_latencies=(2, 2),
            occupancy=config.l1_occupancy,
        ),
        description="clustered shared primary cache",
    )


@register_topology(
    "shared-l3",
    kind="shared-secondary",
    default_cpus=4,
    description=(
        "3-level hierarchy: private L1 and L2 per core over a "
        "crossbar-banked shared L3 (3D-stacked point, arXiv 2504.19984)"
    ),
)
def _shared_l3_topology(n_cpus: int, config: MemConfig) -> Topology:
    # The private L2 is a slice of the chip-level budget; the stacked
    # L3 sits at its own latency/bandwidth point (MemConfig l3_*).
    private_l2 = max(config.l2_size // 8, config.line_size * 4)
    return Topology(
        name="shared-l3",
        kind="shared-secondary",
        n_cpus=n_cpus,
        levels=(
            CacheLevel(
                name="l1d",
                size=config.l1d_size,
                assoc=config.l1d_assoc,
                latency=config.l1_latency,
                occupancy=config.l1_occupancy,
                write_policy="writethrough",
            ),
            CacheLevel(
                name="l2",
                size=private_l2,
                assoc=config.l2_assoc,
                latency=config.l2_latency,
                occupancy=config.l2_occupancy,
                write_policy="writethrough",
            ),
            CacheLevel(
                name="l3",
                size=config.l3_size,
                assoc=config.l3_assoc,
                latency=config.shared_l3_latency,
                occupancy=config.l3_occupancy,
                banks=config.n_l3_banks,
                sharing=SHARED_BY_ALL,
            ),
        ),
        interconnect=Interconnect(
            kind="crossbar",
            stage_latencies=(config.shared_l3_latency,),
            occupancy=config.l3_occupancy,
        ),
        description="shared tertiary cache",
    )


def _next_pow2(n: int) -> int:
    power = 1
    while power < n:
        power <<= 1
    return power
