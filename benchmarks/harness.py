"""pytest-benchmark glue for the per-figure benchmark harnesses.

Every benchmark runs one workload across the three architectures at
the figures' operating point (:mod:`repro.core.paper`: ``bench``
scale, ``BENCH_OVERRIDES``), prints the paper's data series and writes
the same text into ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md
can reference the measured numbers.

Shape assertions are deliberately loose — the reproduction targets who
wins and by roughly what factor, not absolute cycle counts (see
DESIGN.md Section 5 on scaling).
"""

from __future__ import annotations

import pathlib

from repro.core.experiment import (
    ExperimentResult,
    run_architecture_comparison,
)
from repro.core.paper import BENCH_MAX_CYCLES as MAX_CYCLES  # noqa: F401
from repro.core.paper import BENCH_OVERRIDES, FIGURES, write_figure

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def run_matrix(
    workload: str,
    cpu_model: str = "mipsy",
    extra_overrides: dict | None = None,
    jobs: int = 1,
    runner=None,
    obs_sample: int = 0,
) -> dict[str, ExperimentResult]:
    """Run one workload on all three architectures at bench scale.

    The workload is passed to the runner *by name*, so ``jobs > 1``
    fans the three architectures out over worker processes; ``runner``
    shares a configured :class:`repro.core.runner.Runner` (e.g. with a
    result cache) across many matrices. Overrides go through
    ``MemConfig.with_overrides`` and are therefore re-validated.
    ``obs_sample`` > 0 attaches the utilization sampler to every run.
    """
    overrides = dict(BENCH_OVERRIDES.get(workload, {}))
    if extra_overrides:
        overrides.update(extra_overrides)
    return run_architecture_comparison(
        workload,
        cpu_model=cpu_model,
        scale="bench",
        max_cycles=MAX_CYCLES,
        mem_config_overrides=overrides or None,
        jobs=jobs,
        runner=runner,
        obs_sample=obs_sample,
    )


def report(name: str, results: dict[str, ExperimentResult]) -> str:
    """Print and persist the catalog figure ``name`` under results/."""
    return write_figure(FIGURES[name], results, RESULTS_DIR)


def run_benchmarked(benchmark, workload, cpu_model="mipsy", **kwargs):
    """Run the matrix under pytest-benchmark timing (a single round —
    these are multi-second simulations, not microbenchmarks)."""
    results: dict[str, ExperimentResult] = {}

    def once():
        results.clear()
        results.update(run_matrix(workload, cpu_model=cpu_model, **kwargs))

    benchmark.pedantic(once, rounds=1, iterations=1)
    return results
