"""Cross-checks on statistic accounting the reports depend on."""

import pytest

from repro.core.configs import build_memory
from repro.core.configs import test_config as make_test_config
from repro.mem.types import AccessKind
from repro.sim.stats import SystemStats

ADDR = 0x1000_0000
LINE = 32


#: The paper presets. The ids are the per-preset class names these
#: cases carried before the hierarchy became spec-built; keeping them
#: keeps each case's history comparable across that change.
PAPER_PRESETS = (
    pytest.param("shared-l1", id="SharedL1System"),
    pytest.param("shared-l2", id="SharedL2System"),
    pytest.param("shared-mem", id="SharedMemorySystem"),
)


def _make(arch, **overrides):
    stats = SystemStats.for_cpus(4)
    return build_memory(arch, make_test_config(**overrides), stats), stats


@pytest.mark.parametrize("arch", PAPER_PRESETS)
def test_read_and_write_denominators(arch):
    system, stats = _make(arch)
    t = 0
    for i in range(10):
        t = system.access(0, AccessKind.LOAD, ADDR + i * LINE, t).done
    for i in range(6):
        t = system.access(0, AccessKind.STORE, ADDR + i * LINE, t).done
    l1 = stats.aggregate_caches(".l1d")
    assert l1.reads == 10
    assert l1.writes == 6
    assert l1.accesses == 16


@pytest.mark.parametrize("arch", PAPER_PRESETS)
def test_misses_never_exceed_accesses(arch):
    system, stats = _make(arch)
    t = 0
    for i in range(60):
        kind = AccessKind.STORE if i % 3 == 0 else AccessKind.LOAD
        t = system.access(i % 4, kind, ADDR + (i % 13) * LINE, t).done
    for cache in stats.caches.values():
        assert cache.misses <= cache.accesses
        assert cache.miss_rate <= 1.0


def test_shared_l1_writeback_counted_once_per_dirty_eviction():
    system, stats = _make("shared-l1", shared_l1_optimistic=True)
    # Dirty a line, then evict it with conflicting fills.
    system.access(0, AccessKind.STORE_COND, ADDR, 0)
    way = system.l1d.n_sets * LINE
    t = 1000
    for k in range(1, system.l1d.assoc + 1):
        t = system.access(0, AccessKind.LOAD, ADDR + k * way, t).done
    assert stats.cache("shared.l1d").writebacks == 1


def test_shared_l2_write_through_counts():
    system, stats = _make("shared-l2")
    t = 0
    for i in range(5):
        t = system.access(0, AccessKind.STORE, ADDR + i * LINE, t).done
    l1 = stats.cache("cpu0.l1d")
    assert l1.write_throughs == 5
    # Every drain reached the shared L2 as a write access.
    assert stats.cache("shared.l2").writes == 5


def test_shared_mem_l2_writeback_on_dirty_eviction():
    system, stats = _make("shared-mem")
    system.access(0, AccessKind.STORE_COND, ADDR, 0)
    # Evict through the private L2 with conflicting fills.
    l2 = system.l2[0]
    way = l2.n_sets * LINE
    t = 1000
    for k in range(1, l2.assoc + 1):
        t = system.access(0, AccessKind.LOAD, ADDR + k * way, t).done
    assert stats.cache("cpu0.l2").writebacks >= 1
    assert system.bus.writebacks >= 1


def test_l2_evictions_counted():
    system, stats = _make("shared-l2")
    l2_lines = system.shared.size // LINE
    t = 0
    for i in range(l2_lines + 8):
        t = system.access(0, AccessKind.LOAD, ADDR + i * LINE, t).done
    assert stats.cache("shared.l2").evictions >= 8


def test_update_policy_counts_updates_not_invalidations():
    system, stats = _make("shared-l2", l1_coherence="update")
    system.access(1, AccessKind.LOAD, ADDR, 0)
    system.access(0, AccessKind.STORE, ADDR, 500)
    assert stats.cache("cpu1.l1d").updates_received == 1
    assert stats.cache("cpu1.l1d").invalidations_received == 0


def test_ifetch_misses_tracked_per_cpu():
    for arch in ("shared-l1", "shared-l2", "shared-mem"):
        system, stats = _make(arch)
        system.access(2, AccessKind.IFETCH, 0x0040_0000, 0)
        assert stats.cache("cpu2.l1i").misses == 1
        assert stats.cache("cpu0.l1i").misses == 0
