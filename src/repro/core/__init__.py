"""System assembly, experiment matrix and report formatting.

This is the public face of the library: build a
:class:`~repro.core.system.System` from an architecture name, a CPU
model and a workload, run it, and get the paper's statistics back; or
describe one simulation as a :class:`~repro.core.runner.Job` and run it
across the full architecture matrix the way the evaluation section
does (:mod:`repro.core.sweeps`). :mod:`repro.core.runner` executes
batches of jobs across worker processes with an on-disk result cache;
the matrix, the sweeps, the CLI and the study catalog behind ``repro
reproduce`` (:mod:`repro.core.paper`) all submit through it.
"""

from repro.core.configs import (
    ARCHITECTURES,
    CPU_MODELS,
    CpuParams,
    bench_config,
    build_memory,
    paper_config,
    test_config,
)
from repro.core.system import System
from repro.core.experiment import ExperimentResult
from repro.core.report import (
    format_bar_chart,
    format_breakdown_table,
    format_ipc_table,
    format_miss_rate_table,
    format_resource_table,
    normalized_times,
    speedups,
)
from repro.core.figures import (
    render_breakdown_svg,
    render_comparison_figure,
    render_ipc_svg,
)
from repro.core.runner import (
    Job,
    JobOutcome,
    ResultCache,
    Runner,
    RunReport,
    register_workload,
    run_jobs,
)
from repro.core.sweeps import (
    SweepResult,
    run_architecture_comparison,
    speedup_table,
    sweep_cpu_count,
    sweep_mem_field,
)
from repro.core.selfcheck import run_selfcheck

__all__ = [
    "ARCHITECTURES",
    "CPU_MODELS",
    "CpuParams",
    "bench_config",
    "build_memory",
    "paper_config",
    "test_config",
    "System",
    "ExperimentResult",
    "run_architecture_comparison",
    "format_bar_chart",
    "format_breakdown_table",
    "format_ipc_table",
    "format_miss_rate_table",
    "format_resource_table",
    "normalized_times",
    "speedups",
    "render_breakdown_svg",
    "render_comparison_figure",
    "render_ipc_svg",
    "Job",
    "JobOutcome",
    "ResultCache",
    "Runner",
    "RunReport",
    "register_workload",
    "run_jobs",
    "SweepResult",
    "speedup_table",
    "sweep_cpu_count",
    "sweep_mem_field",
    "run_selfcheck",
]
