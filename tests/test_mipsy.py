"""Tests for the Mipsy CPU model via small systems."""

from conftest import LoopWorkload, SharingWorkload, build_system


def test_loop_workload_runs_to_completion():
    system = build_system("shared-mem", LoopWorkload, iterations=5)
    stats = system.run()
    assert not system.truncated
    assert all(cpu.done for cpu in system.cpus)
    assert stats.instructions > 0
    assert stats.cycles > 0


def test_one_busy_cycle_per_instruction():
    system = build_system("shared-mem", LoopWorkload, iterations=5)
    stats = system.run()
    breakdown = stats.aggregate_breakdown()
    assert breakdown.busy == stats.instructions


def test_total_breakdown_accounts_for_runtime():
    """busy + stalls per CPU is close to the CPU's finishing time."""
    system = build_system("shared-l2", LoopWorkload, iterations=5)
    stats = system.run()
    for cpu in system.cpus:
        accounted = stats.breakdowns[cpu.cpu_id].total
        assert accounted <= cpu.resume
        # Fast-forwarding means no unaccounted gaps beyond scheduling
        # skew of a few cycles per instruction.
        assert accounted >= cpu.resume * 0.9


def test_second_iteration_is_faster_than_first():
    """Warm caches: the steady-state loop runs near one IPC."""
    system = build_system(
        "shared-mem", LoopWorkload, n_cpus=1, iterations=50, array_words=16
    )
    stats = system.run()
    # 50 iterations x 16 words x 4 instructions; misses only in the
    # first iteration -> overall CPI must approach 1.
    cpi = stats.cycles / stats.instructions
    assert cpi < 1.5


def test_store_heavy_loop_does_not_stall_cpu_much():
    system = build_system(
        "shared-mem", LoopWorkload, n_cpus=1, iterations=20, array_words=16
    )
    stats = system.run()
    assert stats.aggregate_breakdown().storebuf < stats.cycles * 0.2


def test_sharing_workload_values_flow_between_cpus():
    # SharingWorkload's barrier-released reads assert internally that
    # the functional value arrives; completing is the assertion.
    system = build_system("shared-mem", SharingWorkload, rounds=3)
    system.run()
    assert all(cpu.done for cpu in system.cpus)


def test_sharing_workload_produces_invalidation_misses():
    system = build_system("shared-mem", SharingWorkload, rounds=4)
    stats = system.run()
    l1 = stats.aggregate_caches(".l1d")
    assert l1.misses_inval > 0


def test_shared_l1_has_no_invalidation_misses():
    system = build_system("shared-l1", SharingWorkload, rounds=4)
    stats = system.run()
    l1 = stats.aggregate_caches(".l1d")
    assert l1.misses_inval == 0


def test_istall_attributed_on_cold_code():
    system = build_system("shared-mem", LoopWorkload, iterations=2)
    stats = system.run()
    assert stats.aggregate_breakdown().istall > 0


def test_instruction_counts_match_across_architectures():
    """With no spin waits, all architectures run the same instructions."""
    counts = {}
    for arch in ("shared-l1", "shared-l2", "shared-mem"):
        system = build_system(arch, LoopWorkload, iterations=5)
        stats = system.run()
        counts[arch] = stats.instructions
    assert len(set(counts.values())) == 1
