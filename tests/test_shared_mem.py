"""Unit tests driving the bus-based shared-memory system directly."""

import pytest

from repro.core.configs import build_memory
from repro.core.configs import test_config as make_test_config
from repro.mem.cache import EXCLUSIVE, MODIFIED, SHARED
from repro.mem.types import AccessKind, StallLevel
from repro.sim.stats import SystemStats

ADDR = 0x1000_0000
LINE = ADDR >> 5  # 32-byte lines


@pytest.fixture
def system():
    stats = SystemStats.for_cpus(4)
    return build_memory("shared-mem", make_test_config(), stats)


def test_cold_load_uses_bus_memory(system):
    result = system.access(0, AccessKind.LOAD, ADDR, 0)
    assert result.level == StallLevel.MEM
    assert result.done >= system.config.bus.mem_latency


def test_unshared_fill_is_exclusive(system):
    system.access(0, AccessKind.LOAD, ADDR, 0)
    assert system.l1d[0].states[system.l1d[0].find(LINE)] == EXCLUSIVE
    assert system.l2[0].states[system.l2[0].find(LINE)] == EXCLUSIVE


def test_second_reader_gets_shared_copies(system):
    system.access(0, AccessKind.LOAD, ADDR, 0)
    result = system.access(1, AccessKind.LOAD, ADDR, 200)
    assert result.level == StallLevel.MEM  # clean copy: memory supplies
    assert system.l1d[0].states[system.l1d[0].find(LINE)] == SHARED
    assert system.l1d[1].states[system.l1d[1].find(LINE)] == SHARED


def test_dirty_remote_copy_supplies_cache_to_cache(system):
    system.access(0, AccessKind.STORE, ADDR, 0)
    assert system.l1d[0].states[system.l1d[0].find(LINE)] == MODIFIED
    result = system.access(1, AccessKind.LOAD, ADDR, 500)
    assert result.level == StallLevel.C2C
    assert system.stats.c2c_transfers == 1
    # The owner keeps a shared copy.
    assert system.l1d[0].states[system.l1d[0].find(LINE)] == SHARED


def test_write_hit_on_exclusive_is_silent(system):
    system.access(0, AccessKind.LOAD, ADDR, 0)
    result = system.access(0, AccessKind.STORE, ADDR, 200)
    assert result.done == 201
    assert system.l1d[0].states[system.l1d[0].find(LINE)] == MODIFIED
    assert system.l2[0].states[system.l2[0].find(LINE)] == MODIFIED
    assert system.bus.upgrades == 0


def test_write_hit_on_shared_upgrades(system):
    system.access(0, AccessKind.LOAD, ADDR, 0)
    system.access(1, AccessKind.LOAD, ADDR, 200)
    system.access(0, AccessKind.STORE, ADDR, 400)
    assert system.bus.upgrades == 1
    assert system.l1d[1].find(LINE) < 0
    # CPU 1's re-read is an invalidation miss serviced cache-to-cache.
    result = system.access(1, AccessKind.LOAD, ADDR, 600)
    assert result.level == StallLevel.C2C
    assert system.stats.cache("cpu1.l1d").read_misses_inval == 1


def test_write_miss_with_remote_dirty_copy(system):
    system.access(0, AccessKind.STORE, ADDR, 0)
    result = system.access(1, AccessKind.STORE, ADDR, 500)
    assert result.visible_cycle > 500
    assert system.l1d[0].find(LINE) < 0
    assert system.l1d[1].states[system.l1d[1].find(LINE)] == MODIFIED


def test_stores_are_posted_and_fifo_visible(system):
    first = system.access(0, AccessKind.STORE, ADDR, 0)
    second = system.access(0, AccessKind.STORE, ADDR + 32, 1)
    assert first.done == 1
    assert second.done == 2
    assert second.visible_cycle >= first.visible_cycle


def test_sc_is_not_posted(system):
    result = system.access(0, AccessKind.STORE_COND, ADDR, 0)
    assert result.done == result.visible_cycle
    assert result.done > 1


def test_private_l2_hit(system):
    system.access(0, AccessKind.LOAD, ADDR, 0)
    # Evict from (tiny) L1 with conflicting lines.
    way_span = system.l1d[0].n_sets * system.config.line_size
    t = 200
    for k in range(1, system.l1d[0].assoc + 1):
        t = system.access(0, AccessKind.LOAD, ADDR + k * way_span, t).done
    assert system.l1d[0].find(LINE) < 0
    result = system.access(0, AccessKind.LOAD, ADDR, t + 10)
    assert result.level == StallLevel.L2


def test_l2s_are_private(system):
    system.access(0, AccessKind.LOAD, ADDR, 0)
    assert system.l2[0].find(LINE) >= 0
    assert system.l2[1].find(LINE) < 0


def test_mesi_invariants_after_traffic(system):
    t = 0
    for i in range(40):
        cpu = i % 4
        kind = AccessKind.STORE if i % 3 == 0 else AccessKind.LOAD
        addr = ADDR + (i % 7) * 32
        t = system.access(cpu, kind, addr, t).done
    system.snoop.check_invariants()


def test_bus_serializes_misses(system):
    a = system.access(0, AccessKind.LOAD, ADDR, 0)
    b = system.access(1, AccessKind.LOAD, ADDR + 4096, 0)
    assert b.done > a.done  # queued on the single bus


def test_ifetch_through_own_l2_and_bus(system):
    pc = 0x0040_0000
    result = system.access(0, AccessKind.IFETCH, pc, 0)
    assert result.level == StallLevel.MEM
    result = system.access(0, AccessKind.IFETCH, pc, 200)
    assert result.done == 201
