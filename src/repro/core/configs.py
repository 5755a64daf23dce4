"""Scale presets (paper Table 2) and CPU parameters (Section 2.1).

Three scales are provided (see DESIGN.md Section 5):

* ``paper_config()`` — the paper's true sizes (16 KB L1s, 2 MB L2);
* ``bench_config()`` — 1/8 scale, the evaluation's operating point
  (2 KB L1s, 256 KB L2);
* ``test_config()`` — 1/32 scale for the unit/integration test suite.

Latencies and occupancies are never scaled; they are the design points
under study.

Architecture selection is delegated to the topology registry
(:mod:`repro.mem.topology`): :func:`build_memory` resolves a preset
name (or an explicit :class:`~repro.mem.topology.Topology`) against
the memory config and hands the spec to the registered builder.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.mem.hierarchy import MemConfig, MemorySystem
from repro.mem.topology import (
    PAPER_TOPOLOGIES,
    Topology,
    build_topology,
    resolve_topology,
)
from repro.sim.stats import SystemStats

#: The three architectures of the paper, in its presentation order
#: (the paper-reproduction pipeline iterates these; ``repro list``
#: enumerates every registered preset).
ARCHITECTURES = PAPER_TOPOLOGIES

#: The two CPU models.
CPU_MODELS = ("mipsy", "mxs")


@dataclass
class CpuParams:
    """MXS microarchitecture parameters (paper Section 2.1)."""

    width: int = 2              # 2-way issue
    #: centralized instruction window: select considers the first
    #: ``window`` reorder-buffer positions, so it is bounded by the ROB
    #: (``window >= rob`` all mean "the whole ROB")
    window: int = 32
    rob: int = 32               # reorder buffer entries
    btb_entries: int = 1024     # branch target buffer
    mshrs: int = 4              # outstanding data-cache misses
    fetch_width: int = 2
    #: model wrong-path instruction fetch after a misprediction: while
    #: the branch resolves, fetch runs down the predicted (wrong) path,
    #: polluting the I-cache and consuming refill bandwidth. Off by
    #: default (the paper-matching configuration models the refill
    #: bubble only; see DESIGN.md substitutions).
    wrong_path_fetch: bool = False

    def __post_init__(self) -> None:
        if self.width <= 0 or self.fetch_width <= 0:
            raise ConfigError("issue and fetch width must be positive")
        if self.window <= 0 or self.rob <= 0:
            raise ConfigError("window and ROB must be positive")
        if self.btb_entries <= 0 or self.btb_entries & (self.btb_entries - 1):
            raise ConfigError("BTB entries must be a power of two")
        if self.mshrs <= 0:
            raise ConfigError("MSHR count must be positive")


def paper_config(n_cpus: int = 4, **overrides) -> MemConfig:
    """The paper's full-size memory configuration."""
    return MemConfig(n_cpus=n_cpus, **overrides)


def bench_config(n_cpus: int = 4, **overrides) -> MemConfig:
    """1/8-scale configuration the evaluation's studies run at."""
    return paper_config(n_cpus=n_cpus, **overrides).scaled(8)


def test_config(n_cpus: int = 4, **overrides) -> MemConfig:
    """1/32-scale configuration used by the test suite."""
    return paper_config(n_cpus=n_cpus, **overrides).scaled(32)


#: Scale name -> the configuration it means, smallest first: what
#: ``--scale`` accepts and ``repro list`` prints.
SCALES = {"test": test_config, "bench": bench_config, "paper": paper_config}


def config_for_scale(scale: str, n_cpus: int = 4, **overrides) -> MemConfig:
    """Map a workload scale name to its memory configuration."""
    if scale not in SCALES:
        raise ConfigError(f"unknown scale {scale!r}; use paper/bench/test")
    return SCALES[scale](n_cpus, **overrides)


def build_memory(
    arch: "str | Topology", config: MemConfig, stats: SystemStats
) -> MemorySystem:
    """Instantiate the memory system for a topology preset or spec."""
    topology = resolve_topology(arch, config)
    return build_topology(topology, config, stats)
