"""Tests for the directory and snoopy MESI coherence engines."""

import pytest

from repro.errors import ProtocolError
from repro.mem.cache import EXCLUSIVE, MODIFIED, SHARED, CacheArray
from repro.mem.coherence.directory import Directory
from repro.mem.coherence.mesi import SnoopController
from repro.sim.stats import CacheStats


# ----------------------------------------------------------------------
# directory


def test_directory_tracks_holders():
    directory = Directory()
    directory.add_holder(5, 0)
    directory.add_holder(5, 2)
    assert directory.holders(5) == [0, 2]
    assert directory.is_holder(5, 2)
    assert not directory.is_holder(5, 1)


def test_directory_holders_excluding_writer():
    directory = Directory()
    directory.add_holder(5, 0)
    directory.add_holder(5, 1)
    assert directory.holders(5, excluding=0) == [1]


def test_directory_invalidate_for_write_keeps_writer():
    directory = Directory()
    for cpu in range(3):
        directory.add_holder(5, cpu)
    victims = directory.invalidate_for_write(5, writer=1)
    assert victims == [0, 2]
    assert directory.holders(5) == [1]
    assert directory.invalidations_sent == 2


def test_directory_invalidate_for_write_without_writer_copy():
    directory = Directory()
    directory.add_holder(5, 0)
    victims = directory.invalidate_for_write(5, writer=3)
    assert victims == [0]
    assert directory.holders(5) == []
    assert len(directory) == 0


def test_directory_clear_returns_all():
    directory = Directory()
    directory.add_holder(9, 1)
    directory.add_holder(9, 3)
    assert directory.clear(9) == [1, 3]
    assert directory.holders(9) == []


def test_directory_remove_holder():
    directory = Directory()
    directory.add_holder(7, 0)
    directory.add_holder(7, 1)
    directory.remove_holder(7, 0)
    assert directory.holders(7) == [1]
    directory.remove_holder(7, 1)
    assert len(directory) == 0
    directory.remove_holder(7, 2)  # no-op on absent entry


# ----------------------------------------------------------------------
# snoopy MESI (the controller and the caches work in line addresses)

LINE = 0x100 >> 5  # 32-byte lines


def make_snoop(n_cpus=4):
    l1ds = [CacheArray(f"c{i}.l1d", 512, 2, 32) for i in range(n_cpus)]
    l2s = [CacheArray(f"c{i}.l2", 2048, 2, 32) for i in range(n_cpus)]
    l1_stats = [CacheStats(name=f"c{i}.l1d") for i in range(n_cpus)]
    l2_stats = [CacheStats(name=f"c{i}.l2") for i in range(n_cpus)]
    snoop = SnoopController(l1ds, l2s, l1_stats, l2_stats)
    return snoop, l1ds, l2s, l1_stats, l2_stats


def fill(l1, l2, state):
    l2.fill(LINE, state)
    l1.fill(LINE, state)


def test_snoop_read_of_modified_supplies_c2c_and_downgrades():
    snoop, l1ds, l2s, _, _ = make_snoop()
    fill(l1ds[1], l2s[1], MODIFIED)
    assert snoop.snoop_read(0, LINE) == "c2c"
    assert l2s[1].states[l2s[1].find(LINE)] == SHARED
    assert l1ds[1].states[l1ds[1].find(LINE)] == SHARED


def test_snoop_read_of_clean_copies_uses_memory():
    snoop, l1ds, l2s, _, _ = make_snoop()
    fill(l1ds[1], l2s[1], EXCLUSIVE)
    assert snoop.snoop_read(0, LINE) == "mem"
    # E downgraded to S
    assert l2s[1].states[l2s[1].find(LINE)] == SHARED


def test_snoop_write_invalidates_everyone():
    snoop, l1ds, l2s, l1_stats, l2_stats = make_snoop()
    fill(l1ds[1], l2s[1], SHARED)
    fill(l1ds[2], l2s[2], SHARED)
    assert snoop.snoop_write(0, LINE) == "mem"
    assert l2s[1].find(LINE) < 0
    assert l1ds[2].find(LINE) < 0
    assert l2_stats[1].invalidations_received == 1
    assert l1d_inval_count(l1_stats) == 2


def l1d_inval_count(l1_stats):
    return sum(s.invalidations_received for s in l1_stats)


def test_snoop_write_of_modified_is_c2c():
    snoop, l1ds, l2s, _, _ = make_snoop()
    fill(l1ds[3], l2s[3], MODIFIED)
    assert snoop.snoop_write(0, LINE) == "c2c"
    assert l2s[3].find(LINE) < 0


def test_upgrade_counts_invalidations():
    snoop, l1ds, l2s, _, _ = make_snoop()
    fill(l1ds[1], l2s[1], SHARED)
    fill(l1ds[2], l2s[2], SHARED)
    assert snoop.upgrade(0, LINE) == 2


def test_any_remote_copy():
    snoop, l1ds, l2s, _, _ = make_snoop()
    assert not snoop.any_remote_copy(0, LINE)
    l2s[2].fill(LINE, SHARED)
    assert snoop.any_remote_copy(0, LINE)
    assert not snoop.any_remote_copy(2, LINE)  # own copy excluded


def test_invariants_catch_double_owner():
    snoop, l1ds, l2s, _, _ = make_snoop()
    l2s[0].fill(LINE, MODIFIED)
    l2s[1].fill(LINE, MODIFIED)
    with pytest.raises(ProtocolError, match="owned by both"):
        snoop.check_invariants()


def test_invariants_catch_owner_plus_sharer():
    snoop, l1ds, l2s, _, _ = make_snoop()
    l2s[0].fill(LINE, MODIFIED)
    l2s[1].fill(LINE, SHARED)
    with pytest.raises(ProtocolError, match="also cached by"):
        snoop.check_invariants()


def test_invariants_catch_inclusion_violation():
    snoop, l1ds, l2s, _, _ = make_snoop()
    l1ds[0].fill(LINE, SHARED)  # L1 without L2 backing
    with pytest.raises(ProtocolError, match="inclusion violated"):
        snoop.check_invariants()


def test_invariants_ignore_an_evicted_owner():
    # Eviction frees the way but leaves its state column as it was.
    snoop, l1ds, l2s, _, _ = make_snoop()
    l2s[0].fill(LINE, MODIFIED)
    l2s[0].evict(LINE)
    l2s[1].fill(LINE, MODIFIED)
    snoop.check_invariants()


def test_invariants_pass_for_clean_sharing():
    snoop, l1ds, l2s, _, _ = make_snoop()
    for cpu in (0, 1, 2):
        fill(l1ds[cpu], l2s[cpu], SHARED)
    snoop.check_invariants()
