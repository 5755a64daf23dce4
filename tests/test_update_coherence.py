"""Tests for the shared-L2 write-update coherence option (§2.3:
"invalidates or updates")."""

import pytest

from conftest import SharingWorkload, build_system

from repro.core.configs import build_memory
from repro.core.configs import test_config as make_test_config
from repro.core.system import System
from repro.errors import ConfigError
from repro.mem.functional import FunctionalMemory
from repro.mem.hierarchy import MemConfig
from repro.mem.types import AccessKind
from repro.sim.stats import SystemStats

ADDR = 0x1000_0000
LINE = ADDR >> 5  # 32-byte lines


def make_update_system():
    config = make_test_config(l1_coherence="update")
    return build_memory("shared-l2", config, SystemStats.for_cpus(4))


def test_config_rejects_unknown_policy():
    with pytest.raises(ConfigError):
        MemConfig(l1_coherence="snoopy")


def test_update_keeps_remote_copies():
    system = make_update_system()
    system.access(0, AccessKind.LOAD, ADDR, 0)
    system.access(1, AccessKind.LOAD, ADDR, 100)
    system.access(0, AccessKind.STORE, ADDR, 200)
    # Under write-update the sharer keeps its line...
    assert system.l1d[1].find(LINE) >= 0
    assert system.stats.cache("cpu1.l1d").updates_received == 1
    assert system.stats.cache("cpu1.l1d").invalidations_received == 0
    # ...and its next read is a hit.
    result = system.access(1, AccessKind.LOAD, ADDR, 300)
    assert result.done == 301


def test_update_values_still_flow():
    """Readers observe the new value once the drain is visible."""
    system = make_update_system()
    functional = FunctionalMemory()
    system.access(1, AccessKind.LOAD, ADDR, 0)
    result = system.access(0, AccessKind.STORE, ADDR, 100)
    functional.write(ADDR, 42, result.visible_cycle, cpu=0)
    assert functional.read(ADDR, result.visible_cycle + 1, cpu=1) == 42


def test_update_drops_dead_sharers_from_directory():
    system = make_update_system()
    system.access(1, AccessKind.LOAD, ADDR, 0)
    # CPU 1 silently evicts the line via conflicting loads.
    way = system.l1d[1].n_sets * system.config.line_size
    t = 100
    for k in range(1, system.l1d[1].assoc + 1):
        t = system.access(1, AccessKind.LOAD, ADDR + k * way, t).done
    assert system.l1d[1].find(LINE) < 0
    system.access(0, AccessKind.STORE, ADDR, t + 10)
    line_addr = ADDR // system.config.line_size
    assert not system.directory.is_holder(line_addr, 1)


def test_update_charges_broadcast_traffic():
    system = make_update_system()
    for cpu in (1, 2, 3):
        system.access(cpu, AccessKind.LOAD, ADDR, cpu * 200)
    before = system.crossbar.requests
    system.access(0, AccessKind.STORE, ADDR, 2000)
    # One drain + three sharer updates.
    assert system.crossbar.requests >= before + 4


def test_update_protocol_runs_sharing_workload():
    functional = FunctionalMemory()
    workload = SharingWorkload(4, functional, rounds=4)
    config = make_test_config()
    config.l1_coherence = "update"
    system = System(
        "shared-l2", workload, cpu_model="mipsy", mem_config=config,
        max_cycles=2_000_000,
    )
    stats = system.run()
    assert not system.truncated
    # Consumers never take invalidation misses under update.
    l1 = stats.aggregate_caches(".l1d")
    assert l1.misses_inval == 0
    assert l1.updates_received > 0


def test_update_beats_invalidate_on_repeated_sharing():
    """Producer/consumer rounds: update saves the consumers' re-fetch
    misses, so the run finishes faster than under invalidate."""

    def run(policy):
        functional = FunctionalMemory()
        workload = SharingWorkload(4, functional, rounds=6)
        config = make_test_config()
        config.l1_coherence = policy
        system = System(
            "shared-l2", workload, cpu_model="mipsy", mem_config=config,
            max_cycles=2_000_000,
        )
        return system.run().cycles

    assert run("update") < run("invalidate")
