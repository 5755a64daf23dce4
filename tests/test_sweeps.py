"""Tests for the parameter-sweep API."""

import pytest

from conftest import LoopWorkload

from repro.core.sweeps import (
    SweepResult,
    speedup_table,
    sweep_cpu_count,
    sweep_mem_field,
)
from repro.errors import ConfigError


def _loop_factory(n_cpus, functional, scale):
    return LoopWorkload(n_cpus, functional, iterations=4, array_words=64)


def test_sweep_mem_field_covers_values_and_archs():
    sweep = sweep_mem_field(
        _loop_factory, "l2_assoc", (1, 4), scale="test",
    )
    assert sweep.values == [1, 4]
    for value in (1, 4):
        assert set(sweep.runs[value]) == {
            "shared-l1", "shared-l2", "shared-mem"
        }
        assert sweep.cycles(value, "shared-mem") > 0


def test_sweep_l1_size_reduces_misses():
    sweep = sweep_mem_field(
        _loop_factory, "l1d_size", (128, 4096), scale="test",
        archs=("shared-mem",),
    )
    small = sweep.runs[128]["shared-mem"].stats.aggregate_caches(".l1d")
    large = sweep.runs[4096]["shared-mem"].stats.aggregate_caches(".l1d")
    assert large.misses <= small.misses


def test_sweep_table_renders():
    sweep = sweep_mem_field(_loop_factory, "l2_assoc", (1, 2), scale="test")
    table = sweep.table()
    assert "l2_assoc" in table
    assert "shared-l1" in table


def test_sweep_series_and_normalized():
    sweep = sweep_mem_field(_loop_factory, "l2_assoc", (1, 2), scale="test")
    series = sweep.series("shared-l2")
    assert len(series) == 2
    times = sweep.normalized(1)
    assert times["shared-mem"] == 1.0


def test_sweep_to_dict():
    sweep = sweep_mem_field(
        _loop_factory, "l2_assoc", (1,), scale="test",
        archs=("shared-l1",),
    )
    data = sweep.to_dict()
    assert data["field"] == "l2_assoc"
    assert "shared-l1" in data["cycles"]["1"]


def test_sweep_base_overrides_compose():
    sweep = sweep_mem_field(
        _loop_factory, "l2_assoc", (1,), scale="test",
        archs=("shared-l1",),
        base_overrides={"l1d_size": 256},
    )
    assert sweep.cycles(1, "shared-l1") > 0


def test_sweep_rejects_empty_values():
    with pytest.raises(ConfigError):
        sweep_mem_field(_loop_factory, "l2_assoc", (), scale="test")
    with pytest.raises(ConfigError):
        sweep_cpu_count(_loop_factory, counts=())


def test_cpu_count_sweep_and_speedups():
    results = sweep_cpu_count(
        _loop_factory, counts=(1, 2), scale="test",
        archs=("shared-l2",),
    )
    speedups = speedup_table(results)
    assert speedups["shared-l2"][1] == 1.0
    # Independent per-CPU loops: two CPUs are no slower than one.
    assert speedups["shared-l2"][2] > 0.8


def test_unknown_field_raises():
    with pytest.raises(ConfigError):
        sweep_mem_field(_loop_factory, "warp_drive", (1,), scale="test")


class _SweepResultUnit:
    pass


def test_sweep_result_table_empty_is_safe():
    empty = SweepResult(field="x")
    assert "x" in empty.table()


# ----------------------------------------------------------------------
# One job-grid builder: the library and the CLI submit the same jobs


class _Recorded(Exception):
    """Stops a batch once its jobs are known."""


class _RecordingRunner:
    """A runner that notes what it was asked to run and runs nothing."""

    def __init__(self):
        self.batch = None

    def run(self, batch):
        self.batch = list(batch)
        raise _Recorded


def _cli_jobs(monkeypatch, argv):
    from repro.command import main, matrix

    runner = _RecordingRunner()
    monkeypatch.setattr(matrix, "runner_from_args", lambda args: runner)
    with pytest.raises(_Recorded):
        main(argv)
    return runner.batch


def _library_jobs(call, *args, **kwargs):
    runner = _RecordingRunner()
    with pytest.raises(_Recorded):
        call(*args, runner=runner, **kwargs)
    return runner.batch


def test_job_grid_is_row_major_and_resolves_preset_core_counts():
    from repro.core.runner import Job, job_grid

    base = Job("shared-l1", "fft", overrides={"l2_assoc": 2})
    grid = job_grid(
        base, ("cluster-l1", "shared-mem"), [2, None],
        [{"l1d_assoc": 1}, {"l2_assoc": 4}],
    )
    assert [(j.overrides, j.n_cpus, j.arch) for j in grid] == [
        (overrides, n_cpus, arch)
        for overrides in (
            {"l2_assoc": 2, "l1d_assoc": 1}, {"l2_assoc": 4},
        )
        for n_cpus, arch in (
            (2, "cluster-l1"), (2, "shared-mem"),
            (16, "cluster-l1"), (4, "shared-mem"),
        )
    ]
    assert base.overrides == {"l2_assoc": 2}  # laid over, not into


def test_library_comparison_submits_the_cli_compare_jobs(monkeypatch):
    # The library used to hard-code four cores for every preset: a
    # 4-core cluster-l1 where ``repro compare`` simulates 16.
    from repro.core.experiment import run_architecture_comparison

    archs = ("cluster-l1", "shared-l1")
    cli = _cli_jobs(
        monkeypatch,
        ["compare", "-w", "fft", "-s", "test", "--archs", *archs],
    )
    library = _library_jobs(
        run_architecture_comparison, "fft", scale="test", archs=archs,
        max_cycles=cli[0].max_cycles,
    )
    assert [job.n_cpus for job in library] == [16, 4]
    assert [job.key() for job in library] == [job.key() for job in cli]
    # An explicit count still means that count on every preset.
    pinned = _library_jobs(
        run_architecture_comparison, "fft", archs=archs, n_cpus=8
    )
    assert [job.n_cpus for job in pinned] == [8, 8]


def test_library_sweeps_submit_the_cli_sweep_and_scaling_jobs(monkeypatch):
    cli = _cli_jobs(
        monkeypatch,
        ["sweep", "-w", "fft", "-s", "test", "--field", "l2_assoc", "1", "2"],
    )
    library = _library_jobs(
        sweep_mem_field, "fft", "l2_assoc", (1, 2), scale="test",
        max_cycles=cli[0].max_cycles,
    )
    assert len(cli) == 6
    assert [job.key() for job in library] == [job.key() for job in cli]

    cli = _cli_jobs(
        monkeypatch,
        ["scaling", "-w", "fft", "-s", "test", "--counts", "2", "4",
         "--archs", "shared-l2", "cluster-l1"],
    )
    library = _library_jobs(
        sweep_cpu_count, "fft", counts=(2, 4), scale="test",
        archs=("shared-l2", "cluster-l1"), max_cycles=cli[0].max_cycles,
    )
    assert [job.key() for job in library] == [job.key() for job in cli]
