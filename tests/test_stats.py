"""Tests for the statistics containers."""

from dataclasses import fields

import pytest

from repro.mem.types import StallLevel
from repro.sim.stats import (
    CacheStats,
    CycleBreakdown,
    MxsStats,
    SystemStats,
)


def test_cache_stats_miss_rates():
    stats = CacheStats(name="x")
    stats.reads = 80
    stats.writes = 20
    stats.read_misses_repl = 8
    stats.write_misses_inval = 2
    assert stats.accesses == 100
    assert stats.misses == 10
    assert stats.miss_rate == 0.10
    assert stats.miss_rate_repl == 0.08
    assert stats.miss_rate_inval == 0.02


def test_cache_stats_empty_rates_are_zero():
    stats = CacheStats()
    assert stats.miss_rate == 0.0
    assert stats.miss_rate_repl == 0.0
    assert stats.miss_rate_inval == 0.0


def test_cache_stats_merge():
    a = CacheStats(name="a", reads=10, read_misses_repl=1)
    b = CacheStats(name="b", reads=30, read_misses_repl=3, writebacks=2)
    merged = a.merged_with(b)
    assert merged.reads == 40
    assert merged.read_misses_repl == 4
    assert merged.writebacks == 2
    # originals untouched
    assert a.reads == 10


def test_cache_stats_merge_sums_every_counter_field():
    """The merge walks the dataclass: a counter added later is summed
    too, without this test or ``merged_with`` naming it."""
    counters = [f.name for f in fields(CacheStats) if f.type in (int, "int")]
    assert len(counters) == len(fields(CacheStats)) - 1  # all but name
    a = CacheStats(name="a", **{n: i + 1 for i, n in enumerate(counters)})
    b = CacheStats(
        name="b", **{n: 100 * (i + 1) for i, n in enumerate(counters)}
    )
    merged = a.merged_with(b)
    assert merged.name == "a"
    for index, name in enumerate(counters):
        assert getattr(merged, name) == 101 * (index + 1), name


def test_breakdown_total_and_charge():
    breakdown = CycleBreakdown(busy=10, istall=5)
    breakdown.charge(StallLevel.L2, 3)
    breakdown.charge(StallLevel.MEM, 2)
    assert breakdown.total == 20
    assert breakdown.memory_stall == 10
    assert breakdown.as_dict()["busy"] == 10


#: the paper's attribution, written out independently of the map: time
#: beyond one cycle that no deeper level explains is L1 time
_BUCKET_OF = {
    StallLevel.NONE: "l1d",
    StallLevel.L1: "l1d",
    StallLevel.L2: "l2",
    StallLevel.MEM: "mem",
    StallLevel.C2C: "c2c",
    StallLevel.STOREBUF: "storebuf",
}


@pytest.mark.parametrize("level", list(StallLevel), ids=lambda l: l.name)
def test_charge_books_each_level_to_its_bucket_only(level):
    breakdown = CycleBreakdown(busy=1, istall=2)
    breakdown.charge(level, 7)
    breakdown.charge(level, 4)
    expected = {name: 0 for name in CycleBreakdown._FIELDS}
    expected.update(busy=1, istall=2)
    expected[_BUCKET_OF[level]] += 11
    assert breakdown.as_dict() == expected


def test_breakdown_merge():
    a = CycleBreakdown(busy=5, l2=1)
    b = CycleBreakdown(busy=7, mem=2)
    merged = a.merged_with(b)
    assert merged.busy == 12
    assert merged.l2 == 1
    assert merged.mem == 2


def test_mxs_ipc():
    mxs = MxsStats(cycles=100, graduated=150)
    assert mxs.ipc == 1.5


def test_mxs_ipc_loss_sums_to_headroom():
    mxs = MxsStats(
        cycles=100,
        graduated=100,
        slots_lost_icache=30,
        slots_lost_dcache=50,
        slots_lost_pipeline=20,
    )
    losses = mxs.ipc_loss(width=2)
    assert abs(sum(losses.values()) - (2 - mxs.ipc)) < 1e-9
    # dcache lost the most slots, so it gets the biggest share
    assert losses["dcache"] > losses["icache"] > losses["pipeline"]


def test_mxs_ipc_loss_no_slots_lost():
    mxs = MxsStats(cycles=10, graduated=10)
    losses = mxs.ipc_loss(width=2)
    assert losses["icache"] == 0.0
    assert losses["dcache"] == 0.0
    assert abs(losses["pipeline"] - 1.0) < 1e-9


def test_system_stats_cache_registry():
    stats = SystemStats.for_cpus(4)
    first = stats.cache("cpu0.l1d")
    second = stats.cache("cpu0.l1d")
    assert first is second
    assert len(stats.breakdowns) == 4
    assert len(stats.mxs) == 4


def test_system_stats_aggregate_caches_by_suffix():
    stats = SystemStats.for_cpus(2)
    stats.cache("cpu0.l1d").reads = 10
    stats.cache("cpu1.l1d").reads = 20
    stats.cache("cpu0.l1i").reads = 99
    merged = stats.aggregate_caches(".l1d")
    assert merged.reads == 30


def test_system_stats_aggregate_breakdown():
    stats = SystemStats.for_cpus(2)
    stats.breakdowns[0].busy = 10
    stats.breakdowns[1].busy = 5
    stats.breakdowns[1].mem = 3
    merged = stats.aggregate_breakdown()
    assert merged.busy == 15
    assert merged.mem == 3


def test_system_ipc():
    stats = SystemStats.for_cpus(1)
    stats.cycles = 100
    stats.instructions = 250
    assert stats.ipc == 2.5
