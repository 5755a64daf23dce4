"""First-class parameter sweeps.

The evaluation's ablations all have the same shape: vary one knob, run
the architecture matrix at each value, collect a table. This module
makes that a one-liner and returns structured results the CLI and the
examples can render. (The paper's own ablations are declared, claims
and all, in :mod:`repro.core.paper`.)

Every sweep builds its full (value x architecture) job list up front
and submits it as one :class:`repro.core.runner.Runner` batch, so
``jobs=N`` parallelizes across the *whole* sweep, not just within one
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.configs import ARCHITECTURES
from repro.core.experiment import ExperimentResult, WorkloadFactory
from repro.core.report import normalized_times
from repro.core.runner import Job, Runner, job_grid
from repro.errors import ConfigError


@dataclass
class SweepResult:
    """Outcome of sweeping one field over several values."""

    field: str
    values: list = field(default_factory=list)
    #: value -> {arch -> ExperimentResult}
    runs: dict = field(default_factory=dict)
    #: batch telemetry of the run that produced this sweep
    #: (:meth:`repro.core.runner.RunReport.to_dict` sans per-job list)
    run_report: dict | None = None

    def cycles(self, value, arch: str) -> int:
        """Cycle count for one (value, architecture) point."""
        return self.runs[value][arch].cycles

    def normalized(self, value, baseline: str = "shared-mem") -> dict:
        """Normalized times at one sweep point."""
        return normalized_times(self.runs[value], baseline=baseline)

    def series(self, arch: str) -> list[int]:
        """Cycle counts for one architecture across the sweep."""
        return [self.cycles(value, arch) for value in self.values]

    def table(self) -> str:
        """Plain-text cycles table (values x architectures)."""
        archs = list(next(iter(self.runs.values()))) if self.runs else []
        header = f"{self.field:>14}" + "".join(
            f"{arch:>13}" for arch in archs
        )
        lines = [header, "-" * len(header)]
        for value in self.values:
            row = f"{value!s:>14}"
            for arch in archs:
                row += f"{self.runs[value][arch].cycles:>13}"
            lines.append(row)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serializable summary of the sweep."""
        out = {
            "field": self.field,
            "values": list(self.values),
            "cycles": {
                str(value): {
                    arch: result.cycles
                    for arch, result in self.runs[value].items()
                }
                for value in self.values
            },
        }
        if self.run_report is not None:
            out["run_report"] = dict(self.run_report)
        return out


def sweep_mem_field(
    factory: WorkloadFactory | str,
    sweep_field: str,
    values: Sequence,
    cpu_model: str = "mipsy",
    scale: str = "test",
    n_cpus: int | None = None,
    archs: tuple[str, ...] = ARCHITECTURES,
    max_cycles: int | None = 50_000_000,
    base_overrides: dict | None = None,
    jobs: int = 1,
    runner: Runner | None = None,
    replay: bool = False,
    trace_dir: str | None = None,
) -> SweepResult:
    """Sweep one :class:`~repro.mem.hierarchy.MemConfig` field.

    ``base_overrides`` (applied at every point) lets a sweep run on top
    of a non-default configuration — e.g. Ocean's 1/4-scale caches.
    ``n_cpus=None`` is each preset's own core count, as at the CLI.

    ``replay=True`` runs every point down the trace-replay lane: the
    workload is recorded once and each sweep point re-simulates the
    same reference stream — the record-once/replay-many shape this
    sweep module exists for (see ``docs/REPLAY.md`` for validity).
    """
    if not values:
        raise ConfigError("sweep needs at least one value")
    base = Job(
        archs[0], factory, cpu_model, scale,
        overrides=dict(base_overrides or {}), max_cycles=max_cycles,
        replay=replay, trace_dir=trace_dir,
    )
    batch = job_grid(
        base, archs, n_cpus, [{sweep_field: value} for value in values]
    )
    active = runner if runner is not None else Runner(jobs=jobs)
    report = active.run(batch)
    outcomes = iter(report.outcomes)
    result = SweepResult(field=sweep_field, values=list(values))
    for value in values:
        result.runs[value] = {
            arch: next(outcomes).result for arch in archs
        }
    # Batch-level telemetry rides along (cache/bus rollups included),
    # minus the per-job list the sweep table already encodes.
    summary = report.to_dict()
    summary.pop("per_job", None)
    result.run_report = summary
    return result


def sweep_cpu_count(
    factory: WorkloadFactory | str,
    counts: Sequence[int] = (1, 2, 4),
    cpu_model: str = "mipsy",
    scale: str = "test",
    archs: tuple[str, ...] = ARCHITECTURES,
    max_cycles: int | None = 50_000_000,
    jobs: int = 1,
    runner: Runner | None = None,
    replay: bool = False,
    trace_dir: str | None = None,
) -> dict[str, dict[int, ExperimentResult]]:
    """Run each architecture at several CPU counts.

    Returns ``{arch: {n_cpus: result}}``; self-relative speedups are
    ``result[arch][1].cycles / result[arch][n].cycles``.

    Note that under ``replay=True`` each CPU count still records its
    own reference trace (a 2-CPU stream is not an 8-CPU stream), so
    replay only pays off here across the *architecture* axis.
    """
    if not counts:
        raise ConfigError("sweep needs at least one CPU count")
    base = Job(
        archs[0], factory, cpu_model, scale, max_cycles=max_cycles,
        replay=replay, trace_dir=trace_dir,
    )
    active = runner if runner is not None else Runner(jobs=jobs)
    report = active.run(job_grid(base, archs, list(counts)))
    outcomes = iter(report.outcomes)
    table: dict[str, dict[int, ExperimentResult]] = {
        arch: {} for arch in archs
    }
    for n_cpus in counts:
        for arch in archs:
            table[arch][n_cpus] = next(outcomes).result
    return table


def speedup_table(
    results: dict[str, dict[int, ExperimentResult]],
) -> dict[str, dict[int, float]]:
    """Self-relative speedups from a :func:`sweep_cpu_count` result."""
    table: dict[str, dict[int, float]] = {}
    for arch, by_count in results.items():
        counts = sorted(by_count)
        base = by_count[counts[0]].cycles
        table[arch] = {
            count: base / by_count[count].cycles for count in counts
        }
    return table
