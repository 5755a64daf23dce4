"""Cross-architecture integration tests.

These assert the *shape* results the paper reports, at test scale with
loose thresholds, so the bench-scale claims of the study catalog
(``repro reproduce``) are backed by quick regression checks here.
"""

import pytest

from repro.core.report import normalized_times
from repro.core.runner import Job
from repro.core.sweeps import run_architecture_comparison
from repro.mem.types import AccessKind, StallLevel
from repro.workloads import WORKLOADS


def compare(name, cpu_model="mipsy"):
    return run_architecture_comparison(Job(
        "shared-mem", WORKLOADS[name], cpu_model=cpu_model, scale="test",
        max_cycles=3_000_000,
    ))


# ----------------------------------------------------------------------
# Table 2: contention-free access latencies


@pytest.mark.parametrize(
    "arch,kind,expected_level",
    [
        ("shared-l1", AccessKind.LOAD, StallLevel.L1),
        ("shared-l2", AccessKind.LOAD, StallLevel.NONE),
        ("shared-mem", AccessKind.LOAD, StallLevel.NONE),
    ],
)
def test_l1_hit_latencies_match_table2(arch, kind, expected_level):
    from repro.core.configs import build_memory, paper_config
    from repro.sim.stats import SystemStats

    config = paper_config()
    config.shared_l1_optimistic = False
    memory = build_memory(arch, config, SystemStats.for_cpus(4))
    memory.access(0, AccessKind.LOAD, 0x1000_0000, 0)  # warm
    result = memory.access(0, kind, 0x1000_0000, 1000)
    if arch == "shared-l1":
        assert result.done - 1000 == 3
    else:
        assert result.done - 1000 == 1
    assert result.level == expected_level


def test_l2_hit_latencies_match_table2():
    from repro.core.configs import build_memory, paper_config
    from repro.sim.stats import SystemStats

    for arch, expected in (("shared-l2", 14), ("shared-mem", 10)):
        config = paper_config()
        memory = build_memory(arch, config, SystemStats.for_cpus(4))
        memory.access(0, AccessKind.LOAD, 0x1000_0000, 0)  # fills L2+L1
        # Evict only the L1 copy by conflicting loads, then re-read.
        l1 = memory.l1d[0]
        way = l1.n_sets * config.line_size
        t = 2000
        for k in range(1, l1.assoc + 1):
            t = memory.access(0, AccessKind.LOAD, 0x1000_0000 + k * way, t).done
        result = memory.access(0, AccessKind.LOAD, 0x1000_0000, 100_000)
        assert result.level == StallLevel.L2
        # +1 for the L1 probe / port step before the L2 access begins.
        assert result.done - 100_000 <= expected + 2
        assert result.done - 100_000 >= expected


# ----------------------------------------------------------------------
# Fine-grained apps: shared caches win big (Figures 4 and 8)


@pytest.mark.parametrize("name", ["eqntott", "ear"])
def test_fine_grained_apps_favor_shared_caches(name):
    times = normalized_times(compare(name))
    assert times["shared-l1"] < 0.9
    assert times["shared-l2"] < 1.0
    assert times["shared-l1"] < times["shared-l2"]


def test_ear_has_negligible_memory_stalls_on_shared_l1():
    results = compare("ear")
    breakdown = results["shared-l1"].stats.aggregate_breakdown()
    assert breakdown.memory_stall < 0.25 * breakdown.total


def test_ear_l1_invalidation_rate_highest_on_private_caches():
    results = compare("ear")
    private = results["shared-mem"].stats.aggregate_caches(".l1d")
    shared = results["shared-l1"].stats.aggregate_caches(".l1d")
    assert private.miss_rate_inval > 0
    assert shared.misses_inval == 0


# ----------------------------------------------------------------------
# Communication shows up as invalidation misses only where it should


@pytest.mark.parametrize("name", ["eqntott", "mp3d", "volpack"])
def test_shared_l1_never_has_invalidation_misses(name):
    results = compare(name)
    l1 = results["shared-l1"].stats.aggregate_caches(".l1d")
    l2 = results["shared-l1"].stats.aggregate_caches(".l2")
    assert l1.misses_inval == 0
    assert l2.misses_inval == 0


def test_shared_mem_pays_cache_to_cache_for_sharing():
    results = compare("eqntott")
    assert results["shared-mem"].stats.c2c_transfers > 0
    assert results["shared-l2"].stats.c2c_transfers == 0


# ----------------------------------------------------------------------
# MP3D ablation (Section 4.1): 4-way L2 removes the conflict misses


def test_mp3d_l2_conflicts_drop_with_associativity():
    direct = Job(
        "shared-l1", WORKLOADS["mp3d"], scale="test", max_cycles=3_000_000
    ).run()
    four_way = Job(
        "shared-l1", WORKLOADS["mp3d"], scale="test", max_cycles=3_000_000,
        overrides={"l2_assoc": 4},
    ).run()
    rate_dm = direct.stats.aggregate_caches(".l2").miss_rate
    rate_4w = four_way.stats.aggregate_caches(".l2").miss_rate
    assert rate_4w < rate_dm


# ----------------------------------------------------------------------
# Multiprogramming: no user-level sharing


def test_multiprog_shares_only_kernel_lines():
    results = compare("multiprog")
    stats = results["shared-mem"].stats
    l1 = stats.aggregate_caches(".l1d")
    # Kernel data sharing exists but is a small fraction of misses.
    assert l1.misses_inval > 0
    assert l1.misses_inval < l1.misses_repl


# ----------------------------------------------------------------------
# MXS vs Mipsy (Figure 11 direction): the shared-L1 advantage shrinks
# when the 3-cycle hit time and bank contention are modeled


def test_shared_l1_advantage_shrinks_under_mxs():
    mipsy = normalized_times(compare("eqntott"))
    mxs = normalized_times(compare("eqntott", cpu_model="mxs"))
    assert mxs["shared-l1"] > mipsy["shared-l1"] * 0.9


def test_all_workloads_complete_on_all_architectures():
    for name in sorted(WORKLOADS):
        results = compare(name)
        for arch, result in results.items():
            assert result.cycles < 3_000_000, (name, arch)
            assert result.instructions > 0
