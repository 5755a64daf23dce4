"""Unit tests driving the shared-L2 memory system directly."""

import pytest

from repro.core.configs import build_memory
from repro.core.configs import test_config as make_test_config
from repro.mem.cache import MODIFIED
from repro.mem.types import AccessKind, StallLevel
from repro.sim.stats import SystemStats

ADDR = 0x1000_0000
LINE = ADDR >> 5  # 32-byte lines


@pytest.fixture
def system():
    stats = SystemStats.for_cpus(4)
    return build_memory("shared-l2", make_test_config(), stats)


def test_cold_load_misses_to_memory(system):
    result = system.access(0, AccessKind.LOAD, ADDR, 0)
    assert result.level == StallLevel.MEM
    assert result.done >= system.config.mem_latency


def test_warm_load_hits_l1_in_one_cycle(system):
    system.access(0, AccessKind.LOAD, ADDR, 0)
    result = system.access(0, AccessKind.LOAD, ADDR, 100)
    assert result.done == 101
    assert result.level == StallLevel.NONE


def test_l1_miss_l2_hit_pays_crossbar_latency(system):
    system.access(0, AccessKind.LOAD, ADDR, 0)
    # Another CPU misses its own L1 but hits the shared L2.
    result = system.access(1, AccessKind.LOAD, ADDR, 100)
    assert result.level == StallLevel.L2
    assert result.done == 100 + 1 + system.config.shared_l2_latency


def test_store_releases_cpu_after_one_cycle(system):
    result = system.access(0, AccessKind.STORE, ADDR, 10)
    assert result.done == 11
    assert result.level == StallLevel.NONE
    assert result.visible_cycle > 11  # drain to the L2


def test_write_invalidates_other_l1_copies(system):
    system.access(0, AccessKind.LOAD, ADDR, 0)
    system.access(1, AccessKind.LOAD, ADDR, 100)
    assert system.l1d[1].find(LINE) >= 0
    system.access(0, AccessKind.STORE, ADDR, 200)
    assert system.l1d[1].find(LINE) < 0
    assert system.stats.cache("cpu1.l1d").invalidations_received == 1
    # The re-read is an invalidation miss.
    system.access(1, AccessKind.LOAD, ADDR, 300)
    assert system.stats.cache("cpu1.l1d").read_misses_inval == 1


def test_writer_keeps_own_copy(system):
    system.access(0, AccessKind.LOAD, ADDR, 0)
    system.access(0, AccessKind.STORE, ADDR, 100)
    assert system.l1d[0].find(LINE) >= 0


def test_store_miss_does_not_allocate_in_l1(system):
    system.access(0, AccessKind.STORE, ADDR, 0)
    assert system.l1d[0].find(LINE) < 0


def test_store_allocates_in_l2(system):
    system.access(0, AccessKind.STORE, ADDR, 0)
    assert system.shared.find(LINE) >= 0
    assert system.shared.states[system.shared.find(LINE)] == MODIFIED


def test_directory_tracks_l1_fills(system):
    system.access(0, AccessKind.LOAD, ADDR, 0)
    system.access(2, AccessKind.LOAD, ADDR, 100)
    line_addr = ADDR // system.config.line_size
    assert system.directory.holders(line_addr) == [0, 2]


def test_l2_replacement_invalidates_l1_copies_as_replacement(system):
    system.access(0, AccessKind.LOAD, ADDR, 0)
    # Conflict the (direct-mapped at test scale) L2 set.
    t = 100
    for k in range(1, system.shared.assoc + 1):
        t = system.access(
            0, AccessKind.LOAD, ADDR + k * system.shared.size, t
        ).done
    assert system.shared.find(LINE) < 0
    assert system.l1d[0].find(LINE) < 0
    # Replacement-caused: the next miss is a replacement miss.
    before = system.stats.cache("cpu0.l1d").read_misses_inval
    system.access(0, AccessKind.LOAD, ADDR, t + 10)
    assert system.stats.cache("cpu0.l1d").read_misses_inval == before


def test_sc_waits_for_drain(system):
    result = system.access(0, AccessKind.STORE_COND, ADDR, 10)
    assert result.done == result.visible_cycle
    assert result.done > 11


def test_write_buffer_stalls_when_full(system):
    depth = system.config.write_buffer_depth
    line = system.config.line_size
    # Fill the L2 with the target lines first so drains are fast but
    # non-zero; then fire stores back-to-back at one cycle apart.
    stalled = False
    t = 0
    for i in range(depth * 3):
        result = system.access(0, AccessKind.STORE, ADDR + i * line, t)
        if result.level == StallLevel.STOREBUF:
            stalled = True
        t += 1
    assert stalled


def test_word_drains_hold_port_one_cycle(system):
    """Two drains to different banks from one CPU serialize by 1 cycle
    each at the port, not the full line occupancy."""
    # Warm the L2 so drains hit.
    system.access(0, AccessKind.LOAD, ADDR, 0)
    system.access(0, AccessKind.LOAD, ADDR + 32, 0)
    port = system.crossbar.ports[0]
    free_before = port.next_free
    t = 1000
    system.access(0, AccessKind.STORE, ADDR, t)
    system.access(0, AccessKind.STORE, ADDR + 32, t)
    assert port.next_free == t + 2  # 2 one-cycle holds
    assert free_before <= t


def test_ifetch_shares_l2(system):
    pc = 0x0040_0000
    system.access(0, AccessKind.IFETCH, pc, 0)
    # Second CPU's I-miss hits the shared L2.
    result = system.access(1, AccessKind.IFETCH, pc, 200)
    assert result.level == StallLevel.L2


def test_drain_reports_pending_writes(system):
    system.access(0, AccessKind.STORE, ADDR, 10)
    assert system.drain(11) > 11
