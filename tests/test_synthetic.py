"""Tests for the parameterizable synthetic workload."""

import pytest

from repro.core.configs import ARCHITECTURES
from repro.core.configs import test_config as make_test_config
from repro.core.report import normalized_times
from repro.core.runner import Job, Runner, job_grid
from repro.core.system import System
from repro.errors import WorkloadError
from repro.mem.functional import FunctionalMemory
from repro.workloads.synthetic import SyntheticWorkload, make


def run(arch, **kwargs):
    functional = FunctionalMemory()
    workload = make(4, functional, "test", **kwargs)
    system = System(
        arch, workload, mem_config=make_test_config(), max_cycles=2_000_000
    )
    return system.run(), system


def test_runs_to_completion_everywhere():
    for arch in ("shared-l1", "shared-l2", "shared-mem"):
        stats, system = run(arch)
        assert not system.truncated
        assert stats.instructions > 0


def test_parameter_validation():
    functional = FunctionalMemory()
    with pytest.raises(WorkloadError):
        SyntheticWorkload(4, functional, sharing=1.5)
    with pytest.raises(WorkloadError):
        SyntheticWorkload(4, functional, store_ratio=-0.1)
    with pytest.raises(WorkloadError):
        SyntheticWorkload(4, functional, grain=0)
    with pytest.raises(WorkloadError):
        make(4, functional, "galactic")


def test_sharing_axis_controls_coherence_traffic():
    """Data sharing drives coherence invalidations delivered to the
    private caches; at sharing=0 only the barriers communicate."""
    kwargs = dict(shared_bytes=1024, private_bytes=256,
                  store_ratio=0.7, grain=96, phases=30)
    none_stats, _ = run("shared-mem", sharing=0.0, **kwargs)
    lots_stats, _ = run("shared-mem", sharing=0.6, **kwargs)

    def received(stats):
        return sum(
            stats.cache(f"cpu{i}.l1d").invalidations_received
            for i in range(4)
        )

    assert received(lots_stats) > 1.5 * received(none_stats)


def test_sharing_axis_moves_the_architecture_gap():
    """More sharing widens the shared-L1 advantage over the bus — the
    paper's three classes as a continuum."""

    def gap(sharing):
        point = Job(
            "shared-l1", "synthetic", max_cycles=2_000_000,
            workload_args={"sharing": sharing},
        )
        report = Runner(jobs=1).run(job_grid(point, ARCHITECTURES))
        return normalized_times(
            dict(zip(ARCHITECTURES, report.results))
        )["shared-l1"]

    independent = gap(0.0)
    communicating = gap(0.7)
    assert communicating < independent


def test_store_ratio_moves_write_traffic():
    low_stats, _ = run("shared-l2", store_ratio=0.05)
    high_stats, _ = run("shared-l2", store_ratio=0.6)
    low_writes = low_stats.aggregate_caches(".l1d").writes
    high_writes = high_stats.aggregate_caches(".l1d").writes
    assert high_writes > 2 * low_writes


def test_grain_controls_instructions_per_barrier():
    _, small_system = run("shared-l1", grain=16)
    _, big_system = run("shared-l1", grain=128)
    small = small_system.workload
    big = big_system.workload
    assert big.grain > small.grain
    # Same phase count => more instructions with the bigger grain.
    assert (
        big_system.stats.instructions > small_system.stats.instructions
    )


def test_identical_decision_streams_per_seed():
    """The pre-drawn randomness is identical across instances, so every
    architecture replays the same reference decisions (spin counts at
    barriers still differ by architecture, as they should)."""
    import numpy as np

    first = make(4, FunctionalMemory(), "test")
    second = make(4, FunctionalMemory(), "test")
    assert np.array_equal(first.is_shared, second.is_shared)
    assert np.array_equal(first.is_store, second.is_store)
    assert np.array_equal(first.private_index, second.private_index)
    assert np.array_equal(first.shared_index, second.shared_index)


def test_workload_args_reach_the_factory():
    factory = Job(
        "shared-l1", "synthetic",
        workload_args={"sharing": 0.3, "grain": 24, "store_ratio": 0.1},
    ).resolve_factory()
    workload = factory(4, FunctionalMemory(), "test")
    assert workload.sharing == 0.3
    assert workload.grain == 24
    assert workload.store_ratio == 0.1
