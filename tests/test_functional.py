"""Tests for the timed functional memory and LL/SC semantics."""

from repro.mem.functional import FunctionalMemory


def test_unwritten_reads_zero(functional):
    assert functional.read(0x100, 50) == 0


def test_write_visible_only_at_time(functional):
    functional.write(0x100, 7, visible_at=10)
    assert functional.read(0x100, 9) == 0
    assert functional.read(0x100, 10) == 7
    assert functional.read(0x100, 99) == 7


def test_poke_visible_from_zero(functional):
    functional.poke(0x100, 3)
    assert functional.read(0x100, 0) == 3


def test_latest_write_wins(functional):
    functional.write(0x100, 1, visible_at=5)
    functional.write(0x100, 2, visible_at=8)
    assert functional.read(0x100, 6) == 1
    assert functional.read(0x100, 8) == 2


def test_out_of_order_recording(functional):
    functional.write(0x100, 2, visible_at=8)
    functional.write(0x100, 1, visible_at=5)  # recorded later, earlier time
    assert functional.read(0x100, 6) == 1
    assert functional.read(0x100, 9) == 2


def test_same_time_writes_ordered_by_recording(functional):
    functional.write(0x100, 1, visible_at=5)
    functional.write(0x100, 2, visible_at=5)
    assert functional.read(0x100, 5) == 2


def test_last_write_time(functional):
    assert functional.last_write_time(0x100) is None
    functional.write(0x100, 1, visible_at=33)
    assert functional.last_write_time(0x100) == 33


def test_history_is_capped(functional):
    for i in range(500):
        functional.write(0x100, i, visible_at=i)
    assert len(functional._history[0x100]) <= 128
    assert functional.read(0x100, 499) == 499


# ----------------------------------------------------------------------
# LL / SC


def test_ll_sc_success_when_unchallenged(functional):
    assert functional.load_linked(0, 0x200, 10) == 0
    assert functional.store_conditional(0, 0x200, 1, 12)
    assert functional.read(0x200, 12) == 1


def test_sc_without_reservation_fails(functional):
    assert not functional.store_conditional(0, 0x200, 1, 5)


def test_sc_fails_on_intervening_write(functional):
    functional.load_linked(0, 0x200, 10)
    functional.write(0x200, 9, visible_at=11)
    assert not functional.store_conditional(0, 0x200, 1, 12)


def test_sc_fails_on_tied_cycle_write_recorded_after_ll(functional):
    # The race that decides simultaneous lock acquisitions: another
    # CPU's write lands at the very cycle of our LL but is recorded
    # after the LL executed.
    functional.load_linked(1, 0x200, 10)
    functional.write(0x200, 9, visible_at=10)
    assert not functional.store_conditional(1, 0x200, 1, 12)


def test_sc_ignores_writes_after_sc_time(functional):
    functional.load_linked(0, 0x200, 10)
    functional.write(0x200, 9, visible_at=50)  # becomes visible later
    assert functional.store_conditional(0, 0x200, 1, 12)


def test_sc_fails_on_wrong_address(functional):
    functional.load_linked(0, 0x200, 10)
    assert not functional.store_conditional(0, 0x204, 1, 12)


def test_sc_clears_reservation(functional):
    functional.load_linked(0, 0x200, 10)
    assert functional.store_conditional(0, 0x200, 1, 12)
    assert not functional.store_conditional(0, 0x200, 2, 14)


def test_simultaneous_sc_race_has_single_winner(functional):
    for cpu in range(4):
        assert functional.load_linked(cpu, 0x300, 20) == 0
    outcomes = [
        functional.store_conditional(cpu, 0x300, 1, 22) for cpu in range(4)
    ]
    assert outcomes.count(True) == 1
    assert outcomes[0]  # deterministic: first processed wins


def test_reservations_are_per_cpu(functional):
    functional.load_linked(0, 0x400, 10)
    functional.load_linked(1, 0x404, 10)
    assert functional.has_reservation(0)
    assert functional.has_reservation(1)
    functional.clear_reservation(0)
    assert not functional.has_reservation(0)
    assert functional.has_reservation(1)


def test_sc_orders_after_own_pending_store(functional):
    """Regression: a lock re-acquire racing this CPU's own posted
    release must not be undone when the release drains.

    CPU 0 releases (store 0, visible at t=100) and immediately
    re-acquires: its LL forwards the pending release (reads 0), and the
    SC's write must be ordered at/after t=100 — otherwise the draining
    release would overwrite the lock back to 0.
    """
    # Acquire first.
    functional.load_linked(0, 0x600, 10)
    assert functional.store_conditional(0, 0x600, 1, 12)
    # Posted release: visible much later.
    functional.write(0x600, 0, visible_at=100, cpu=0)
    # Re-acquire before the release is globally visible.
    assert functional.load_linked(0, 0x600, 20) == 0  # own-store forwarding
    assert functional.store_conditional(0, 0x600, 1, 22)
    # The lock must read held at any time after the release drains.
    assert functional.read(0x600, 100) == 1
    assert functional.read(0x600, 1000) == 1


def test_read_own_write_forwarding(functional):
    functional.write(0x700, 5, visible_at=90, cpu=2)
    # The writer sees it immediately; others only at visibility.
    assert functional.read(0x700, 50, cpu=2) == 5
    assert functional.read(0x700, 50, cpu=1) == 0
    assert functional.read(0x700, 95, cpu=1) == 5


def test_lock_handoff_sequence(functional):
    """Full acquire/release/acquire cycle between two CPUs."""
    # CPU 0 takes the lock.
    assert functional.load_linked(0, 0x500, 10) == 0
    assert functional.store_conditional(0, 0x500, 1, 12)
    # CPU 1 spins: sees it held.
    assert functional.load_linked(1, 0x500, 14) == 1
    # CPU 0 releases at t=30.
    functional.write(0x500, 0, visible_at=30)
    # CPU 1 retries after the release.
    assert functional.load_linked(1, 0x500, 31) == 0
    assert functional.store_conditional(1, 0x500, 1, 33)
    assert functional.read(0x500, 33) == 1


def test_sc_fails_while_another_cpus_successful_sc_is_in_flight(functional):
    """Two SCs to one word cannot both succeed. CPU 0's SC succeeds but
    its write is visible only when it completes; CPU 1's LL still reads
    the word free, and its SC completes inside that window."""
    assert functional.load_linked(0, 0x800, 10) == 0
    assert functional.store_conditional(0, 0x800, 1, 60)
    assert functional.load_linked(1, 0x800, 20) == 0
    assert not functional.store_conditional(1, 0x800, 2, 25)
    assert functional.read(0x800, 60) == 1


def test_held_word_is_released_once_its_write_lands(functional):
    functional.load_linked(0, 0x900, 10)
    assert functional.store_conditional(0, 0x900, 1, 60)
    functional.write(0x900, 0, visible_at=70)
    # LL after both writes landed: nothing in flight, nothing held.
    assert functional.load_linked(1, 0x900, 80) == 0
    assert functional.store_conditional(1, 0x900, 1, 85)
