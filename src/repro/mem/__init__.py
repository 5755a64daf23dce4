"""Memory-system models, built from declarative topology specs.

The package provides the building blocks (cache arrays, banked
resources, buses, crossbars, main memory, coherence engines, the timed
functional memory used for synchronization), the :class:`Topology`
spec language plus its preset/builder registries
(:mod:`repro.mem.topology`), and the hierarchy itself: one scaffold,
:class:`~repro.mem.hierarchy.MemorySystem` (private I-caches, write
buffers, access dispatch, fast lanes, resource reporting), under three
coherence disciplines — the three places the paper lets CPUs share:

* :class:`~repro.mem.shared_primary.SharedPrimarySystem` — one banked
  write-back L1 data cache behind a single- or multi-stage crossbar,
  no coherence machinery (Section 2.2; the ``shared-l1`` and
  ``cluster-l1`` presets);
* :class:`~repro.mem.shared_secondary.SharedSecondarySystem` — one or
  more private write-through levels over a shared, banked write-back
  level with directory invalidation or update (Section 2.3; the
  ``shared-l2`` and ``shared-l3`` presets);
* :class:`~repro.mem.shared_mem.SharedMemorySystem` — private L1+L2 per
  CPU kept coherent by a snoopy MESI bus with cache-to-cache transfers
  (Section 2.4; the ``shared-mem`` preset).

Each is built from the resolved spec alone: every ``CacheLevel`` /
``Interconnect`` field is honoured or rejected with a ``ConfigError``.
``repro list`` enumerates the presets (see docs/TOPOLOGIES.md).
"""

from repro.mem.types import AccessKind, AccessResult, StallLevel
from repro.mem.cache import CacheArray
from repro.mem.bank import BankedResource, Resource
from repro.mem.functional import FunctionalMemory
from repro.mem.hierarchy import MemorySystem
from repro.mem.topology import (
    CacheLevel,
    Interconnect,
    Topology,
    TopologyPreset,
    build_topology,
    get_builder,
    get_preset,
    register_builder,
    register_topology,
    resolve_topology,
    topology_names,
)
from repro.mem.shared_primary import SharedPrimarySystem
from repro.mem.shared_secondary import SharedSecondarySystem
from repro.mem.shared_mem import SharedMemorySystem

__all__ = [
    "AccessKind",
    "AccessResult",
    "StallLevel",
    "CacheArray",
    "BankedResource",
    "Resource",
    "FunctionalMemory",
    "MemorySystem",
    "CacheLevel",
    "Interconnect",
    "Topology",
    "TopologyPreset",
    "build_topology",
    "get_builder",
    "get_preset",
    "register_builder",
    "register_topology",
    "resolve_topology",
    "topology_names",
    "SharedPrimarySystem",
    "SharedSecondarySystem",
    "SharedMemorySystem",
]
