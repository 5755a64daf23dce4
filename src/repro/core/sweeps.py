"""The architecture matrix and the one-knob sweeps over it.

The evaluation's figures and ablations all have the same shape: one
base :class:`~repro.core.runner.Job` over a grid of machines — every
architecture, at each value of one knob — collected into a table. The
three helpers here take that base job, the grid's axes and a
:class:`~repro.core.runner.Runner`, and nothing else: every other
setting is a field of the job. ``repro compare`` / ``sweep`` /
``scaling`` call them, and the paper's own studies are declared, claims
and all, in :mod:`repro.core.paper`.

Each helper builds its full job list up front and submits it as one
runner batch, so a ``Runner(jobs=N)`` parallelizes across the *whole*
grid, and a point that produced no result is an error, whatever the
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.configs import ARCHITECTURES
from repro.core.experiment import ExperimentResult
from repro.core.report import normalized_times
from repro.core.runner import Job, Runner, job_grid
from repro.errors import ConfigError, ReproError


@dataclass
class SweepResult:
    """Outcome of sweeping one field over several values."""

    field: str
    values: list = field(default_factory=list)
    #: value -> {arch -> ExperimentResult}
    runs: dict = field(default_factory=dict)

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
        return {
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


def _results(runner: Runner | None, batch: list[Job]) -> list:
    """``batch``'s results in job order, on ``runner`` (a serial one
    by default); a job that produced none is a :class:`ReproError`
    naming every such job by its label."""
    report = (runner or Runner(jobs=1)).run(batch)
    if report.failures:
        raise ReproError("; ".join(
            f"{outcome.job.label()}: {outcome.error}"
            for outcome in report.failures
        ))
    return report.results


def run_architecture_comparison(
    base: Job,
    archs: Sequence[str] = ARCHITECTURES,
    n_cpus: int | None = None,
    runner: Runner | None = None,
) -> dict[str, ExperimentResult]:
    """``base`` on every architecture in ``archs``; results by name.

    Each architecture gets a *fresh* workload instance (same parameters,
    same synthetic data seeding) and a fresh functional memory, exactly
    as the paper restarts each run from the same checkpoint.
    ``n_cpus`` sets every point's core count in place of
    ``base.n_cpus``; ``None`` is each preset's own, so these are the
    jobs ``repro compare`` runs for the same flags.
    """
    if not archs:
        raise ConfigError("need at least one architecture")
    return dict(zip(
        archs, _results(runner, job_grid(base, archs, n_cpus))
    ))


def sweep_mem_field(
    base: Job,
    sweep_field: str,
    values: Sequence,
    archs: Sequence[str] = ARCHITECTURES,
    n_cpus: int | None = None,
    runner: Runner | None = None,
) -> SweepResult:
    """``base`` on every architecture at each value of one
    :class:`~repro.mem.hierarchy.MemConfig` field.

    Each point's override is laid over ``base.overrides``, so a sweep
    runs on top of a non-default configuration (Ocean's 1/4-scale
    caches, say). With ``base.replay`` every point runs down the
    trace-replay lane: the workload is recorded once and each point
    re-simulates the same reference stream — the record-once /
    replay-many shape sweeps exist for (``docs/REPLAY.md``).
    """
    if not values:
        raise ConfigError("sweep needs at least one value")
    results = iter(_results(runner, job_grid(
        base, archs, n_cpus, [{sweep_field: value} for value in values]
    )))
    return SweepResult(
        field=sweep_field,
        values=list(values),
        runs={
            value: {arch: next(results) for arch in archs}
            for value in values
        },
    )


def sweep_cpu_count(
    base: Job,
    counts: Sequence[int] = (1, 2, 4),
    archs: Sequence[str] = ARCHITECTURES,
    runner: Runner | None = None,
) -> dict[str, dict[int, ExperimentResult]]:
    """``base`` on every architecture at several CPU counts.

    Returns ``{arch: {n_cpus: result}}``; self-relative speedups are
    ``result[arch][1].cycles / result[arch][n].cycles``
    (:func:`speedup_table`). Under ``base.replay`` each CPU count
    records its own reference trace (a 2-CPU stream is not an 8-CPU
    stream), so replay only pays off across the architecture axis.
    """
    if not counts:
        raise ConfigError("sweep needs at least one CPU count")
    results = iter(_results(runner, job_grid(base, archs, list(counts))))
    table: dict[str, dict[int, ExperimentResult]] = {
        arch: {} for arch in archs
    }
    for n_cpus in counts:
        for arch in archs:
            table[arch][n_cpus] = next(results)
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
