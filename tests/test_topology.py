"""The composable topology engine: specs, registries, new systems.

Covers the spec language (validation, serialization), the preset and
builder registries, the two non-paper topologies end-to-end (16-core
cluster over a multi-stage crossbar; 3-level private-L1/private-L2/
shared-L3 hierarchy), their fast-lane invariance, the scaling figure,
and the N-CPU workload sharding that makes any core count legal.
"""

from __future__ import annotations

import pytest

from repro.core.configs import build_memory, config_for_scale
from repro.core.system import System
from repro.errors import ConfigError
from repro.mem.crossbar import Crossbar
from repro.mem.functional import FunctionalMemory
from repro.mem.shared_mem import SharedMemorySystem
from repro.mem.shared_primary import SharedPrimarySystem
from repro.mem.shared_secondary import SharedSecondarySystem
from repro.mem.topology import (
    PAPER_TOPOLOGIES,
    CacheLevel,
    Interconnect,
    Topology,
    build_topology,
    get_preset,
    resolve_topology,
    topology_names,
)
from repro.sim.stats import SystemStats
from repro.workloads import WORKLOADS
from repro.workloads.base import shard

CAP = 3_000_000


def _level(**overrides) -> CacheLevel:
    base = dict(name="l1d", size=4096, assoc=2, latency=1)
    base.update(overrides)
    return CacheLevel(**base)


def _run(arch, n_cpus, cpu_model="mipsy", workload="fft", fast=True):
    config = config_for_scale("test", n_cpus)
    if not fast:
        config = config.with_overrides(l1_fast_path=False)
    w = WORKLOADS[workload](n_cpus, FunctionalMemory(), "test")
    system = System(
        arch, w, cpu_model=cpu_model, mem_config=config, max_cycles=CAP
    )
    stats = system.run()
    assert not system.truncated
    return stats


# ---------------------------------------------------------------------------
# spec validation and serialization


def test_cache_level_validation_errors():
    with pytest.raises(ConfigError):
        _level(size=0).validate(4)
    with pytest.raises(ConfigError):
        _level(assoc=0).validate(4)
    with pytest.raises(ConfigError):
        _level(latency=0).validate(4)
    with pytest.raises(ConfigError):
        _level(banks=3).validate(4)
    with pytest.raises(ConfigError):
        _level(sharing=3).validate(4)  # does not divide 4
    with pytest.raises(ConfigError):
        _level(write_policy="writearound").validate(4)
    _level(banks=4, sharing=2).validate(4)


def test_cache_level_arrays():
    assert _level(sharing=1).arrays(8) == 8
    assert _level(sharing=2).arrays(8) == 4
    assert _level(sharing=0).arrays(8) == 1


def test_interconnect_validation_and_latency():
    ic = Interconnect(kind="multistage", stage_latencies=(2, 2))
    ic.validate()
    assert ic.latency == 4
    with pytest.raises(ConfigError):
        Interconnect(stage_latencies=(0,)).validate()
    with pytest.raises(ConfigError):
        Interconnect(occupancy=0).validate()


def test_topology_validation_errors():
    with pytest.raises(ConfigError):
        Topology(name="t", kind="k", n_cpus=0, levels=(_level(),)).validate()
    with pytest.raises(ConfigError):
        Topology(name="t", kind="k", n_cpus=4, levels=()).validate()


def test_topology_roundtrip_and_level_lookup():
    config = config_for_scale("test", 16)
    topology = resolve_topology("cluster-l1", config)
    clone = Topology.from_dict(topology.to_dict())
    assert clone.to_dict() == topology.to_dict()
    assert clone.level("l1d").sharing == 0
    with pytest.raises(ConfigError):
        clone.level("l9")


# ---------------------------------------------------------------------------
# registries


def test_topology_names_paper_first():
    names = topology_names()
    assert names[:3] == PAPER_TOPOLOGIES
    assert "cluster-l1" in names and "shared-l3" in names


def test_get_preset_unknown():
    with pytest.raises(ConfigError):
        get_preset("shared-l9")


def test_preset_metadata():
    assert get_preset("cluster-l1").default_cpus == 16
    assert get_preset("shared-l1").default_cpus == 4
    for name in topology_names():
        assert get_preset(name).description


def test_resolve_topology_rejects_cpu_mismatch():
    config = config_for_scale("test", 4)
    sixteen = resolve_topology("cluster-l1", config_for_scale("test", 16))
    with pytest.raises(ConfigError):
        resolve_topology(sixteen, config)


def test_build_topology_unknown_kind():
    config = config_for_scale("test", 4)
    bogus = Topology(
        name="bogus", kind="no-such-kind", n_cpus=4, levels=(_level(),)
    )
    with pytest.raises(ConfigError):
        build_topology(bogus, config, SystemStats.for_cpus(4))


@pytest.mark.parametrize(
    "name,cls",
    [
        ("shared-l1", SharedPrimarySystem),
        ("shared-l2", SharedSecondarySystem),
        ("shared-mem", SharedMemorySystem),
        ("cluster-l1", SharedPrimarySystem),
        ("shared-l3", SharedSecondarySystem),
    ],
)
def test_builders_produce_expected_system(name, cls):
    n = get_preset(name).default_cpus
    config = config_for_scale("test", n)
    memory = build_memory(name, config, SystemStats.for_cpus(n))
    # Five presets, three coherence disciplines: the class is chosen by
    # the spec's kind and everything else by the spec's contents.
    assert type(memory) is cls
    assert memory.name == name
    assert memory.topology == resolve_topology(name, config)


# ---------------------------------------------------------------------------
# the two new topologies, end to end


def test_cluster_uses_multistage_crossbar():
    config = config_for_scale("test", 16)
    memory = build_topology(
        resolve_topology("cluster-l1", config),
        config,
        SystemStats.for_cpus(16),
    )
    assert isinstance(memory.crossbar, Crossbar)
    assert len(memory.crossbar.switches) == 1  # two stages, one column
    assert memory.l1d.size == config.l1d_size * 16


def test_shared_l3_has_three_levels():
    config = config_for_scale("test", 4)
    memory = build_topology(
        resolve_topology("shared-l3", config),
        config,
        SystemStats.for_cpus(4),
    )
    assert isinstance(memory.crossbar, Crossbar)
    assert memory.crossbar.switches == []  # one stage, no columns
    levels = memory.components()
    assert len(levels["l1d"]) == 4 and len(levels["l2"]) == 4
    assert levels["l3"].size == config.l3_size


@pytest.mark.parametrize("cpu_model", ("mipsy", "mxs"))
@pytest.mark.parametrize(
    "arch,n_cpus", [("cluster-l1", 16), ("shared-l3", 4)]
)
def test_new_topologies_run_and_are_deterministic(arch, n_cpus, cpu_model):
    first = _run(arch, n_cpus, cpu_model)
    second = _run(arch, n_cpus, cpu_model)
    assert first.cycles > 0 and first.instructions > 0
    assert first.to_dict() == second.to_dict()


@pytest.mark.parametrize("cpu_model", ("mipsy", "mxs"))
@pytest.mark.parametrize(
    "arch,n_cpus", [("cluster-l1", 16), ("shared-l3", 4)]
)
def test_new_topologies_fast_path_invisible(arch, n_cpus, cpu_model):
    fast = _run(arch, n_cpus, cpu_model, fast=True)
    slow = _run(arch, n_cpus, cpu_model, fast=False)
    assert fast.to_dict() == slow.to_dict()


def test_scaling_figure_through_runner(tmp_path):
    from repro.core.figures import render_scaling_svg
    from repro.core.sweeps import speedup_table, sweep_cpu_count

    from repro.core.runner import Job

    table = sweep_cpu_count(
        Job("cluster-l1", "fft"), counts=(2, 4),
        archs=("cluster-l1", "shared-l3"),
    )
    speedups = speedup_table(table)
    assert set(speedups) == {"cluster-l1", "shared-l3"}
    out = tmp_path / "scaling.svg"
    svg = render_scaling_svg(table, "scaling", path=out)
    assert out.read_text() == svg
    assert svg.startswith("<svg") and "polyline" in svg
    assert "cluster-l1" in svg and "shared-l3" in svg


# ---------------------------------------------------------------------------
# N-CPU workload sharding (no more hard-wired four)


def test_shard_covers_everything_exactly_once():
    for n_items in (0, 1, 4, 7, 16, 33):
        for n_cpus in (1, 2, 3, 4, 8, 16):
            blocks = [shard(n_items, n_cpus, cpu) for cpu in range(n_cpus)]
            flat = [i for block in blocks for i in block]
            assert flat == list(range(n_items))
            sizes = [len(block) for block in blocks]
            assert max(sizes) - min(sizes) <= 1


def test_shard_matches_even_split():
    # When n_cpus divides n_items the split is the historical even one.
    assert list(shard(16, 4, 1)) == list(range(4, 8))
    assert list(shard(4, 4, 3)) == [3]


@pytest.mark.parametrize("n_cpus", (2, 8, 16))
@pytest.mark.parametrize("workload", ("fft", "ocean", "eqntott"))
def test_workloads_deterministic_at_any_cpu_count(workload, n_cpus):
    first = _run("shared-mem", n_cpus, workload=workload)
    second = _run("shared-mem", n_cpus, workload=workload)
    assert first.cycles > 0
    assert first.to_dict() == second.to_dict()
