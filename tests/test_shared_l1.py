"""Unit tests driving the shared-L1 memory system directly."""

import pytest

from repro.core.configs import build_memory
from repro.core.configs import test_config as make_test_config
from repro.mem.cache import MODIFIED
from repro.mem.types import AccessKind, StallLevel
from repro.sim.stats import SystemStats


def _build(optimistic: bool):
    config = make_test_config(shared_l1_optimistic=optimistic)
    return build_memory("shared-l1", config, SystemStats.for_cpus(4))


@pytest.fixture
def system():
    return _build(optimistic=False)


@pytest.fixture
def optimistic():
    return _build(optimistic=True)


ADDR = 0x1000_0000
LINE = ADDR >> 5  # 32-byte lines


def warm(system, addr=ADDR, cpu=0):
    """Fill the line (load that misses all the way to memory)."""
    return system.access(cpu, AccessKind.LOAD, addr, 0)


def test_cold_load_goes_to_memory(system):
    result = warm(system)
    # 3-cycle L1 probe + L2 tag + memory latency
    assert result.level == StallLevel.MEM
    assert result.done >= system.config.mem_latency


def test_warm_load_hits_with_crossbar_latency(system):
    warm(system)
    result = system.access(0, AccessKind.LOAD, ADDR, 100)
    assert result.level == StallLevel.L1
    assert result.done == 100 + system.config.shared_l1_latency


def test_optimistic_hit_is_single_cycle(optimistic):
    warm(optimistic)
    result = optimistic.access(0, AccessKind.LOAD, ADDR, 100)
    assert result.level == StallLevel.NONE
    assert result.done == 101


def test_other_cpus_hit_on_shared_fill(system):
    """The prefetch-for-each-other effect: CPU 1 hits what CPU 0 fetched."""
    warm(system, cpu=0)
    result = system.access(1, AccessKind.LOAD, ADDR, 100)
    assert result.level == StallLevel.L1  # hit, crossbar latency only


def test_l2_hit_after_l1_eviction(system):
    warm(system)
    # Evict the line from the (tiny test-scale) shared L1 by filling
    # conflicting addresses; the L2 still holds it.
    way_span = system.l1d.n_sets * system.config.line_size
    t = 200
    for k in range(1, system.l1d.assoc + 1):
        t = system.access(0, AccessKind.LOAD, ADDR + k * way_span, t).done
    assert system.l1d.find(LINE) < 0
    assert system.l2.find(LINE) >= 0
    result = system.access(0, AccessKind.LOAD, ADDR, t + 10)
    assert result.level == StallLevel.L2


def test_store_is_posted(optimistic):
    result = optimistic.access(0, AccessKind.STORE, ADDR, 50)
    assert result.done == 51
    assert result.level == StallLevel.NONE
    # Visibility lags: the write-allocate fill goes to memory.
    assert result.visible_cycle > 51


def test_store_conditional_blocks(optimistic):
    result = optimistic.access(0, AccessKind.STORE_COND, ADDR, 50)
    assert result.done == result.visible_cycle
    assert result.done > 51


def test_store_buffer_fills_and_stalls(optimistic):
    depth = optimistic.config.write_buffer_depth
    line = optimistic.config.line_size
    stalled = False
    t = 0
    for i in range(depth + 2):
        result = optimistic.access(0, AccessKind.STORE, ADDR + i * line, t)
        if result.level == StallLevel.STOREBUF:
            stalled = True
        t = result.done
    assert stalled


def test_store_marks_line_dirty_and_writeback_on_eviction(optimistic):
    optimistic.access(0, AccessKind.STORE, ADDR, 0)
    assert optimistic.l1d.states[optimistic.l1d.find(LINE)] == MODIFIED
    way_span = optimistic.l1d.n_sets * optimistic.config.line_size
    t = 300
    for k in range(1, optimistic.l1d.assoc + 1):
        t = optimistic.access(0, AccessKind.LOAD, ADDR + k * way_span, t).done
    stats = optimistic.stats.cache("shared.l1d")
    assert stats.writebacks >= 1


def test_ifetch_counts_misses_on_l1i(system):
    pc = 0x0040_0000
    result = system.access(0, AccessKind.IFETCH, pc, 0)
    assert result.done > 1
    assert system.stats.cache("cpu0.l1i").misses == 1
    # refetch hits
    result = system.access(0, AccessKind.IFETCH, pc, 200)
    assert result.done == 201


def test_icache_private_per_cpu(system):
    pc = 0x0040_0000
    system.access(0, AccessKind.IFETCH, pc, 0)
    result = system.access(1, AccessKind.IFETCH, pc, 200)
    assert result.done > 201  # CPU 1 misses separately
    assert system.stats.cache("cpu1.l1i").misses == 1


def test_bank_conflicts_under_detailed_model(system):
    """Two CPUs touching the same bank in the same cycle serialize."""
    warm(system, ADDR, cpu=0)
    warm(system, ADDR + 32 * system.config.n_l1_banks, cpu=1)  # same bank
    a = system.access(0, AccessKind.LOAD, ADDR, 1000)
    b = system.access(
        1, AccessKind.LOAD, ADDR + 32 * system.config.n_l1_banks, 1000
    )
    assert b.done > a.done  # queued behind CPU 0 in the bank


def test_no_bank_conflicts_when_optimistic(optimistic):
    warm(optimistic, ADDR, cpu=0)
    warm(optimistic, ADDR + 32 * optimistic.config.n_l1_banks, cpu=1)
    a = optimistic.access(0, AccessKind.LOAD, ADDR, 1000)
    b = optimistic.access(
        1, AccessKind.LOAD, ADDR + 32 * optimistic.config.n_l1_banks, 1000
    )
    assert a.done == b.done == 1001


def test_miss_rates_accumulate(system):
    warm(system)
    stats = system.stats.cache("shared.l1d")
    assert stats.reads == 1
    assert stats.misses_repl == 1
    system.access(0, AccessKind.LOAD, ADDR, 500)
    assert stats.reads == 2
    assert stats.misses == 1


def test_l2_stats_track_accesses(system):
    warm(system)
    l2 = system.stats.cache("chip.l2")
    assert l2.reads == 1
    assert l2.misses == 1
