"""Tests for system assembly, the run loop, and the experiment harness."""

import pytest

from conftest import LoopWorkload, SharingWorkload, build_system

from repro.core.configs import (
    ARCHITECTURES,
    CpuParams,
    bench_config,
    build_memory,
    config_for_scale,
    paper_config,
)
from repro.core.configs import test_config as make_test_config
from repro.core.runner import Job
from repro.core.sweeps import run_architecture_comparison
from repro.core.report import (
    format_breakdown_table,
    format_ipc_table,
    format_miss_rate_table,
    normalized_times,
    speedups,
)
from repro.core.system import System
from repro.errors import ConfigError, DeadlockError, ReproError
from repro.mem.functional import FunctionalMemory
from repro.mem.types import AccessKind
from repro.sim.stats import SystemStats
from repro.trace import TraceRecord, TraceWorkload
from repro.workloads.base import Workload


# ----------------------------------------------------------------------
# configs


def test_paper_config_matches_table2():
    config = paper_config()
    assert config.l1_latency == 1
    assert config.shared_l1_latency == 3
    assert config.l2_latency == 10
    assert config.l2_occupancy == 2
    assert config.shared_l2_latency == 14
    assert config.shared_l2_occupancy == 4
    assert config.mem_latency == 50
    assert config.mem_occupancy == 6
    assert config.bus.c2c_latency > 50
    assert config.bus.c2c_occupancy > 6


def test_paper_config_sizes():
    config = paper_config()
    assert config.l1i_size == 16 * 1024
    assert config.l1d_size == 16 * 1024
    assert config.shared_l1_size == 64 * 1024
    assert config.l2_size == 2 * 1024 * 1024


def test_scaled_configs_shrink_sizes_not_latencies():
    paper = paper_config()
    bench = bench_config()
    assert bench.l1d_size == paper.l1d_size // 8
    assert bench.l2_size == paper.l2_size // 8
    assert bench.l2_latency == paper.l2_latency
    assert bench.mem_latency == paper.mem_latency


def test_config_for_scale_names():
    assert config_for_scale("paper").l1d_size == 16 * 1024
    assert config_for_scale("bench").l1d_size == 2 * 1024
    assert config_for_scale("test").l1d_size == 512
    with pytest.raises(ConfigError):
        config_for_scale("nope")


def test_build_memory_by_name():
    stats = SystemStats.for_cpus(4)
    for arch in ARCHITECTURES:
        memory = build_memory(arch, make_test_config(), stats)
        assert memory.name == arch
    with pytest.raises(ConfigError):
        build_memory("shared-l9", make_test_config(), stats)


def test_cpu_params_validation():
    with pytest.raises(ConfigError):
        CpuParams(btb_entries=1000)  # not a power of two
    with pytest.raises(ConfigError):
        CpuParams(window=0)
    with pytest.raises(ConfigError):
        CpuParams(mshrs=0)  # used to surface from MshrFile at build time


# ----------------------------------------------------------------------
# system


def test_system_sets_mipsy_optimism():
    system = build_system("shared-l1", LoopWorkload, cpu_model="mipsy")
    assert system.config.shared_l1_optimistic
    system = build_system("shared-l1", LoopWorkload, cpu_model="mxs")
    assert not system.config.shared_l1_optimistic


def test_system_never_edits_its_callers_config():
    # Mipsy then MXS from one MemConfig, with and without obs: every
    # model-specific field lands on the system's own copy, so the
    # second system is not built on what the first one left behind,
    # and observing one changes nothing about its configuration.
    import dataclasses

    from repro.obs import ObsConfig

    config = make_test_config(4)
    before = dataclasses.asdict(config)
    assert config.shared_l1_optimistic is False and config.l1_fast_path
    for obs in (None, ObsConfig(sample_interval=256)):
        for cpu_model, optimistic in (("mipsy", True), ("mxs", False)):
            system = System(
                "shared-l1", LoopWorkload(4, FunctionalMemory()),
                cpu_model=cpu_model, mem_config=config, obs=obs,
            )
            assert system.config is not config
            assert system.config.shared_l1_optimistic is optimistic
            assert system.config.l1_fast_path is True
            assert dataclasses.asdict(config) == before


def test_system_rejects_unknown_cpu_model():
    functional = FunctionalMemory()
    workload = LoopWorkload(4, functional)
    with pytest.raises(ConfigError):
        System("shared-mem", workload, cpu_model="embra")


def test_system_rejects_cpu_count_mismatch():
    functional = FunctionalMemory()
    workload = LoopWorkload(2, functional)
    with pytest.raises(ConfigError):
        System("shared-mem", workload, mem_config=make_test_config(4))


def test_max_cycles_truncates():
    system = build_system(
        "shared-mem", LoopWorkload, iterations=10_000, max_cycles=500
    )
    stats = system.run()
    assert system.truncated
    # In-flight accesses may finish a little past the cap.
    assert stats.cycles <= 500 + 200


def test_max_cycles_inside_fast_forward_window_truncates():
    """When every CPU is stalled on a long miss, the run loop
    fast-forwards past ``max_cycles`` in one jump. The truncation check
    runs at the top of the loop, so the run must stop with
    ``truncated`` set — and the jump must never be mistaken for a
    deadlock, even with a horizon shorter than the stall."""
    functional = FunctionalMemory()
    workload = LoopWorkload(1, functional, iterations=10_000)
    system = System(
        "shared-mem",
        workload,
        mem_config=make_test_config(1),
        # The first data load misses L1, L2 and goes to memory — a
        # multi-ten-cycle stall. Cap the run inside that window.
        max_cycles=5,
        deadlock_horizon=1,
    )
    stats = system.run()
    assert system.truncated
    assert stats.cycles >= 5


def test_stats_cycles_is_makespan():
    system = build_system("shared-mem", LoopWorkload, iterations=5)
    stats = system.run()
    assert stats.cycles >= max(
        breakdown.total for breakdown in stats.breakdowns
    )


def test_run_is_deterministic():
    def run_once():
        system = build_system("shared-l2", SharingWorkload, rounds=3)
        stats = system.run()
        return stats.cycles, stats.instructions

    assert run_once() == run_once()


def _uneven_trace(functional):
    """A replayed stream whose CPUs hold 1, 6, 11 and 16 loads."""
    return TraceWorkload(4, functional, [
        TraceRecord(cpu, AccessKind.LOAD, 0x1000_0000 * (cpu + 1) + 64 * i, 0)
        for cpu in range(4)
        for i in range(5 * cpu + 1)
    ])


@pytest.mark.parametrize("cpu_model", ("mipsy", "mxs"))
@pytest.mark.parametrize("workload", ("generated", "replayed"))
def test_a_finished_cpu_is_never_ticked_again(cpu_model, workload):
    """The run loop drops a CPU from its tick order in the cycle it
    finishes (and a resumed run starts without it), so the loop never
    asks a CPU whether it is done."""
    functional = FunctionalMemory()
    system = System(
        "shared-l2",
        _uneven_trace(functional) if workload == "replayed"
        else LoopWorkload(4, functional, iterations=3),
        cpu_model=cpu_model,
        mem_config=make_test_config(4),
    )
    late_ticks, finished_at = [], {}
    for cpu in system.cpus:
        model = type(cpu)

        def tick(self, cycle, model=model):
            if self.done:
                late_ticks.append((self.cpu_id, cycle))
            model.tick(self, cycle)
            if self.done:
                finished_at.setdefault(self.cpu_id, cycle)

        cpu.__class__ = type(
            f"Watched{model.__name__}", (model,),
            {"__slots__": (), "tick": tick},
        )
    pauses = 0
    while system.run(pause_at=50 * (pauses + 1)) and system.paused:
        pauses += 1
    assert pauses > 1 and not system.truncated
    assert late_ticks == []
    # some CPU finished while others ran on, across a pause too
    assert len(finished_at) == 4
    assert min(finished_at.values()) // 50 < max(finished_at.values()) // 50


class _StuckWorkload(Workload):
    """One CPU waits forever on a flag nobody sets (true deadlock —
    stalls without retiring instructions are caught by the watchdog
    via max_cycles; spin livelocks retire instructions forever)."""

    name = "stuck"

    def __init__(self, n_cpus, functional):
        super().__init__(n_cpus, functional)
        self.region = self.code.region("stuck", 8)
        self.flag = self.data.alloc_line()

    def program(self, cpu_id):
        ctx = self.context(cpu_id)
        em = ctx.emitter(self.region)
        while True:
            em.jump(0)
            top = em.label()
            value = yield em.load(self.flag, want_value=True)
            if value:
                return
            yield em.branch(True, to=top)


def test_spin_livelock_hits_max_cycles():
    system = build_system("shared-mem", _StuckWorkload, max_cycles=20_000)
    system.run()
    assert system.truncated


def test_deadlock_error_carries_cycle():
    error = DeadlockError(123, detail="x")
    assert error.cycle == 123
    assert "123" in str(error)


# ----------------------------------------------------------------------
# experiment harness + report


def _loop_factory(n_cpus, functional, scale):
    return LoopWorkload(n_cpus, functional, iterations=4)


LOOP = Job("shared-mem", _loop_factory, scale="test")


def test_job_run_returns_result():
    result = Job("shared-l2", _loop_factory, scale="test").run()
    assert result.arch == "shared-l2"
    assert result.cycles > 0
    assert result.wall_seconds >= 0


def test_comparison_covers_all_architectures():
    results = run_architecture_comparison(LOOP)
    assert set(results) == set(ARCHITECTURES)


def test_comparison_applies_overrides():
    results = run_architecture_comparison(
        Job("shared-mem", _loop_factory, overrides={"l2_assoc": 4})
    )
    for result in results.values():
        assert result.cycles > 0
    with pytest.raises(ConfigError):
        run_architecture_comparison(
            Job("shared-mem", _loop_factory, overrides={"zzz": 1})
        )


def test_normalized_times_and_speedups():
    results = run_architecture_comparison(LOOP)
    times = normalized_times(results)
    assert times["shared-mem"] == 1.0
    ratios = speedups(results)
    for arch in results:
        assert ratios[arch] == pytest.approx(1.0 / times[arch])


def test_normalized_times_requires_baseline():
    results = run_architecture_comparison(LOOP, archs=("shared-l1",))
    with pytest.raises(ReproError):
        normalized_times(results)


def test_report_tables_render():
    results = run_architecture_comparison(LOOP)
    breakdown = format_breakdown_table(results, title="t")
    misses = format_miss_rate_table(results, title="m")
    assert "shared-l1" in breakdown and "total" in breakdown
    assert "L1R%" in misses
    ipc = format_ipc_table(results)
    assert "IPC" in ipc


def test_ipc_table_with_mxs_results():
    results = run_architecture_comparison(
        Job("shared-mem", _loop_factory, cpu_model="mxs")
    )
    table = format_ipc_table(results)
    assert "n/a" not in table


def test_non_default_cpu_counts_run_everywhere():
    """2- and 8-CPU machines build and run on every architecture
    (crossbar ports and shared-L1 capacity scale with the CPU count)."""
    for n_cpus in (1, 2, 8):
        for arch in ARCHITECTURES:
            functional = FunctionalMemory()
            workload = LoopWorkload(n_cpus, functional, iterations=3)
            system = System(
                arch,
                workload,
                mem_config=make_test_config(n_cpus),
                max_cycles=500_000,
            )
            stats = system.run()
            assert not system.truncated, (arch, n_cpus)
            assert stats.instructions > 0


def test_shared_l1_capacity_scales_with_cpus():
    config = make_test_config(8)
    assert config.shared_l1_size == 8 * config.l1d_size


def test_result_to_dict_round_trips_through_json():
    import json

    result = Job("shared-l2", _loop_factory, scale="test").run()
    data = json.loads(result.to_json())
    assert data["arch"] == "shared-l2"
    assert data["cycles"] == result.cycles
    assert data["breakdown"]["busy"] == result.stats.aggregate_breakdown().busy
    assert 0 <= data["l1d"]["miss_rate_repl"] <= 1


def test_result_to_dict_includes_mxs_fields():
    result = Job("shared-l2", _loop_factory, cpu_model="mxs",
                 scale="test").run()
    data = result.to_dict()
    assert "per_cpu_ipc" in data
    assert data["mxs"], "per-CPU MXS summaries expected"
    assert "ipc_loss" in data["mxs"][0]
