"""Tests for the MXS dynamic superscalar model."""

import pytest
from conftest import LoopWorkload, SharingWorkload, build_system

from repro.core.runner import Job
from repro.cpu.mxs.btb import BranchTargetBuffer
from repro.cpu.mxs.funits import FunctionalUnits
from repro.isa.instructions import OpClass
from repro.mem.topology import topology_names


# ----------------------------------------------------------------------
# BTB


def test_btb_default_predicts_not_taken():
    btb = BranchTargetBuffer(16)
    assert btb.predict(0x400000) == (False, 0)


def test_btb_learns_taken_branch():
    btb = BranchTargetBuffer(16)
    btb.update(0x400000, taken=True, target=0x400100)
    taken, target = btb.predict(0x400000)
    assert taken and target == 0x400100


def test_btb_counter_hysteresis():
    btb = BranchTargetBuffer(16)
    btb.update(0x400000, taken=True, target=0x400100)
    btb.update(0x400000, taken=True, target=0x400100)  # counter -> 3
    btb.update(0x400000, taken=False, target=0)        # counter -> 2
    taken, _ = btb.predict(0x400000)
    assert taken  # still predicts taken after one not-taken


def test_btb_correct_checks_target_too():
    btb = BranchTargetBuffer(16)
    btb.update(0x400000, taken=True, target=0x400100)
    assert btb.correct(0x400000, True, 0x400100)
    assert not btb.correct(0x400000, True, 0x999999)
    assert not btb.correct(0x400000, False, 0)


def test_btb_untaken_branches_not_allocated():
    btb = BranchTargetBuffer(16)
    btb.update(0x400000, taken=False, target=0)
    assert btb.correct(0x400000, False, 0)  # default not-taken is right


def test_btb_aliasing_is_direct_mapped():
    btb = BranchTargetBuffer(16)
    btb.update(0x400000, taken=True, target=0x400100)
    # 16 entries, pc>>2 indexing: +64*4 bytes aliases the same entry.
    alias = 0x400000 + 16 * 4
    btb.update(alias, taken=True, target=0x500000)
    taken, target = btb.predict(0x400000)
    assert not taken or target != 0x400100  # evicted by the alias


# ----------------------------------------------------------------------
# functional units


def test_two_alus_per_cycle():
    fus = FunctionalUnits()
    assert fus.try_issue(OpClass.IALU, cycle=1)
    assert fus.try_issue(OpClass.IALU, cycle=1)
    assert not fus.try_issue(OpClass.IALU, cycle=1)
    assert fus.structural_stalls == 1
    # next cycle resets
    assert fus.try_issue(OpClass.IALU, cycle=2)


def test_single_memory_port():
    fus = FunctionalUnits()
    assert fus.try_issue(OpClass.LOAD, cycle=1)
    assert not fus.try_issue(OpClass.STORE, cycle=1)  # same mem port


def test_kinds_are_independent():
    fus = FunctionalUnits()
    assert fus.try_issue(OpClass.IALU, cycle=1)
    assert fus.try_issue(OpClass.IALU, cycle=1)
    assert fus.try_issue(OpClass.FMUL_DP, cycle=1)
    assert fus.try_issue(OpClass.LOAD, cycle=1)


# ----------------------------------------------------------------------
# pipeline end-to-end


def test_mxs_runs_loop_workload():
    system = build_system(
        "shared-mem", LoopWorkload, cpu_model="mxs", iterations=5
    )
    stats = system.run()
    assert all(cpu.done for cpu in system.cpus)
    assert stats.instructions > 0
    for mxs in stats.mxs:
        assert mxs.graduated > 0
        assert 0 < mxs.ipc <= 2.0


def test_mxs_instruction_count_matches_mipsy():
    mxs_sys = build_system(
        "shared-l1", LoopWorkload, cpu_model="mxs", iterations=4
    )
    mipsy_sys = build_system(
        "shared-l1", LoopWorkload, cpu_model="mipsy", iterations=4
    )
    assert mxs_sys.run().instructions == mipsy_sys.run().instructions


def test_mxs_overlaps_independent_work():
    """Dynamic scheduling beats the blocking model on the same program."""
    mxs_sys = build_system(
        "shared-mem", LoopWorkload, cpu_model="mxs", n_cpus=1, iterations=30
    )
    mipsy_sys = build_system(
        "shared-mem", LoopWorkload, cpu_model="mipsy", n_cpus=1, iterations=30
    )
    assert mxs_sys.run().cycles < mipsy_sys.run().cycles


def test_mxs_shared_l1_uses_full_hit_latency():
    """Under MXS the shared-L1 optimism must be off."""
    system = build_system(
        "shared-l1", LoopWorkload, cpu_model="mxs", iterations=3
    )
    assert not system.config.shared_l1_optimistic
    system.run()
    # The extra hit latency shows up as pipeline-stall slots.
    assert sum(m.slots_lost_pipeline for m in system.stats.mxs) > 0


def test_mxs_counts_branches_and_mispredicts():
    system = build_system(
        "shared-mem", LoopWorkload, cpu_model="mxs", iterations=5
    )
    stats = system.run()
    total_branches = sum(m.branches for m in stats.mxs)
    total_mispredicts = sum(m.mispredicts for m in stats.mxs)
    assert total_branches > 0
    assert 0 < total_mispredicts < total_branches  # BTB learns the loop


def test_mxs_synchronization_works():
    system = build_system(
        "shared-mem", SharingWorkload, cpu_model="mxs", rounds=2
    )
    system.run()
    assert all(cpu.done for cpu in system.cpus)


def test_mxs_slot_accounting_is_complete():
    system = build_system(
        "shared-l2", LoopWorkload, cpu_model="mxs", iterations=5
    )
    stats = system.run()
    width = 2
    for mxs in stats.mxs:
        assert mxs.slots_total == width * mxs.cycles


@pytest.mark.xfail(
    strict=True,
    reason="MxsCpu.tick counts the tick that only finds its ROB drained "
    "(mxs.cycles += 1 before done is set), so the last CPU to finish "
    "counts stats.cycles + 1; the fix moves Figure 11",
)
@pytest.mark.parametrize("arch", topology_names())
@pytest.mark.parametrize("workload", ("eqntott", "ear"))
def test_no_mxs_cpu_counts_a_cycle_past_the_run(workload, arch):
    stats = Job(
        workload=workload, arch=arch, cpu_model="mxs", scale="test"
    ).build().run()
    assert max(mxs.cycles for mxs in stats.mxs) <= stats.cycles


def test_mxs_rob_bounded():
    system = build_system(
        "shared-mem", LoopWorkload, cpu_model="mxs", n_cpus=1, iterations=3
    )
    rob_limit = system.cpus[0].params.rob
    max_seen = 0

    original_tick = type(system.cpus[0]).tick

    def spy(self, cycle):
        nonlocal max_seen
        max_seen = max(max_seen, len(self.rob))
        original_tick(self, cycle)

    type(system.cpus[0]).tick = spy
    try:
        system.run()
    finally:
        type(system.cpus[0]).tick = original_tick
    assert 0 < max_seen <= rob_limit
