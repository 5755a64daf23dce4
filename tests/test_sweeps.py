"""Tests for the parameter-sweep API."""

import pytest

from conftest import LoopWorkload

from repro.core.runner import Job, Runner
from repro.core.sweeps import (
    SweepResult,
    run_architecture_comparison,
    speedup_table,
    sweep_cpu_count,
    sweep_mem_field,
)
from repro.errors import ConfigError, ReproError


def _loop_factory(n_cpus, functional, scale):
    return LoopWorkload(n_cpus, functional, iterations=4, array_words=64)


LOOP = Job("shared-l1", _loop_factory, scale="test")


def test_sweep_mem_field_covers_values_and_archs():
    sweep = sweep_mem_field(LOOP, "l2_assoc", (1, 4))
    assert sweep.values == [1, 4]
    for value in (1, 4):
        assert set(sweep.runs[value]) == {
            "shared-l1", "shared-l2", "shared-mem"
        }
        assert sweep.cycles(value, "shared-mem") > 0


def test_sweep_l1_size_reduces_misses():
    sweep = sweep_mem_field(
        LOOP, "l1d_size", (128, 4096), archs=("shared-mem",),
    )
    small = sweep.runs[128]["shared-mem"].stats.aggregate_caches(".l1d")
    large = sweep.runs[4096]["shared-mem"].stats.aggregate_caches(".l1d")
    assert large.misses <= small.misses


def test_sweep_table_renders():
    sweep = sweep_mem_field(LOOP, "l2_assoc", (1, 2))
    table = sweep.table()
    assert "l2_assoc" in table
    assert "shared-l1" in table


def test_sweep_series_and_normalized():
    sweep = sweep_mem_field(LOOP, "l2_assoc", (1, 2))
    series = sweep.series("shared-l2")
    assert len(series) == 2
    times = sweep.normalized(1)
    assert times["shared-mem"] == 1.0


def test_sweep_to_dict():
    sweep = sweep_mem_field(LOOP, "l2_assoc", (1,), archs=("shared-l1",))
    data = sweep.to_dict()
    assert data["field"] == "l2_assoc"
    assert "shared-l1" in data["cycles"]["1"]


def test_sweep_base_overrides_compose():
    sweep = sweep_mem_field(
        Job("shared-l1", _loop_factory, overrides={"l1d_size": 256}),
        "l2_assoc", (1,), archs=("shared-l1",),
    )
    assert sweep.cycles(1, "shared-l1") > 0


def test_sweep_rejects_empty_values():
    with pytest.raises(ConfigError):
        sweep_mem_field(LOOP, "l2_assoc", ())
    with pytest.raises(ConfigError):
        sweep_cpu_count(LOOP, counts=())


def test_cpu_count_sweep_and_speedups():
    results = sweep_cpu_count(LOOP, counts=(1, 2), archs=("shared-l2",))
    speedups = speedup_table(results)
    assert speedups["shared-l2"][1] == 1.0
    # Independent per-CPU loops: two CPUs are no slower than one.
    assert speedups["shared-l2"][2] > 0.8


def test_unknown_field_raises():
    with pytest.raises(ConfigError):
        sweep_mem_field(LOOP, "warp_drive", (1,))


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
    archs = ("cluster-l1", "shared-l1")
    cli = _cli_jobs(
        monkeypatch,
        ["compare", "-w", "fft", "-s", "test", "--archs", *archs],
    )
    fft = Job(archs[0], "fft", scale="test")
    library = _library_jobs(run_architecture_comparison, fft, archs)
    assert [job.n_cpus for job in library] == [16, 4]
    assert [job.key() for job in library] == [job.key() for job in cli]
    # An explicit count still means that count on every preset.
    pinned = _library_jobs(
        run_architecture_comparison, Job(archs[0], "fft"), archs, n_cpus=8
    )
    assert [job.n_cpus for job in pinned] == [8, 8]


def test_library_sweeps_submit_the_cli_sweep_and_scaling_jobs(monkeypatch):
    cli = _cli_jobs(
        monkeypatch,
        ["sweep", "-w", "fft", "-s", "test", "--field", "l2_assoc", "1", "2"],
    )
    fft = Job("shared-l1", "fft", scale="test")
    library = _library_jobs(sweep_mem_field, fft, "l2_assoc", (1, 2))
    assert len(cli) == 6
    assert [job.key() for job in library] == [job.key() for job in cli]

    cli = _cli_jobs(
        monkeypatch,
        ["scaling", "-w", "fft", "-s", "test", "--counts", "2", "4",
         "--archs", "shared-l2", "cluster-l1"],
    )
    library = _library_jobs(
        sweep_cpu_count, fft, counts=(2, 4),
        archs=("shared-l2", "cluster-l1"),
    )
    assert [job.key() for job in library] == [job.key() for job in cli]


@pytest.mark.parametrize("jobs", (1, 2))
def test_a_failed_grid_point_is_an_error_at_every_worker_count(jobs):
    # A 3-way L2 is refused by MemConfig. Under a pool the helpers used
    # to hand back None for such a point (and a table that could not
    # render); serially they raised. Now every helper raises at every
    # worker count, naming each failed job and only those.
    fft = Job("shared-l1", "fft")
    three_way = Job("shared-l1", "fft", overrides={"l2_assoc": 3})
    calls = {
        "compare": lambda runner: run_architecture_comparison(
            three_way, runner=runner
        ),
        "sweep": lambda runner: sweep_mem_field(
            fft, "l2_assoc", (1, 3), runner=runner
        ),
        "scaling": lambda runner: sweep_cpu_count(
            three_way, (2, 4), runner=runner
        ),
    }
    for name, call in calls.items():
        with pytest.raises(ReproError) as caught:
            call(Runner(jobs=jobs))
        if jobs > 1:  # serially the worker's own error propagates
            text = str(caught.value)
            assert "fft/shared-l2/mipsy l2_assoc=3: ConfigError" in text
            assert "l2_assoc=1" not in text, name
