"""Report formatting: the paper's rows and series as text tables.

Figures 4-10 are stacked execution-time breakdowns normalized to the
shared-memory architecture, with a companion table of L1/L2 miss rates
split into replacement (L1R/L2R) and invalidation (L1I/L2I) components.
Figure 11 is an IPC breakdown. The formatters here print those numbers
so a bench run reproduces the figure's data series directly; the
ablation studies and the paper's two tables declare their columns
(:class:`Column`, :class:`Table`) and share one renderer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

from repro.core.experiment import ExperimentResult
from repro.errors import ReproError

_BREAKDOWN_COLUMNS = (
    ("cpu", "busy"),
    ("instr", "istall"),
    ("l1d", "l1d"),
    ("l2", "l2"),
    ("mem", "mem"),
    ("c2c", "c2c"),
    ("stbuf", "storebuf"),
)


def normalized_times(
    results: dict[str, ExperimentResult],
    baseline: str = "shared-mem",
) -> dict[str, float]:
    """Execution time of each architecture relative to the baseline.

    1.0 is the baseline; smaller is faster (the paper plots the same
    normalization in Figures 4-10).
    """
    if baseline not in results:
        raise ReproError(f"baseline {baseline!r} missing from results")
    base = results[baseline].cycles
    if base <= 0:
        raise ReproError("baseline run has no cycles")
    return {arch: result.cycles / base for arch, result in results.items()}


def speedups(
    results: dict[str, ExperimentResult],
    baseline: str = "shared-mem",
) -> dict[str, float]:
    """Baseline time / architecture time (how the paper quotes gains)."""
    return {
        arch: 1.0 / value if value else float("inf")
        for arch, value in normalized_times(results, baseline).items()
    }


def format_breakdown_table(
    results: dict[str, ExperimentResult],
    baseline: str = "shared-mem",
    title: str = "",
) -> str:
    """Normalized execution-time breakdown, one row per architecture.

    Every component is expressed as a fraction of the *baseline's*
    total time so rows are directly comparable (the paper's stacked
    bars use the same scale).
    """
    base = results[baseline].cycles
    if base <= 0:
        raise ReproError("baseline run has no cycles")

    def share(bucket: str):
        # Per-CPU breakdowns sum cycles across CPUs; normalize by the
        # number of CPUs to express them in machine time.
        return lambda result: (
            getattr(result.stats.aggregate_breakdown(), bucket)
            / (base * max(result.stats.n_cpus, 1))
        )

    return Table(
        [
            Column("arch", 12, left=True),
            Column("total", 8, lambda result: result.cycles / base, ".3f"),
            *(
                Column(label, 8, share(bucket), ".3f")
                for label, bucket in _BREAKDOWN_COLUMNS
            ),
        ],
        caption=title, rule=True,
    ).format(results)


def format_miss_rate_table(
    results: dict[str, ExperimentResult],
    title: str = "",
) -> str:
    """L1R / L1I / L2R / L2I local miss rates per architecture.

    L1 rates aggregate every data cache (the shared array or the four
    private ones); L2 rates aggregate every L2. Rates are percentages
    of references to that cache, as in the paper.
    """

    def pooled(level: str, counter: str, percent: float = 1):
        return lambda result: percent * getattr(
            result.stats.aggregate_caches(level), counter
        )

    return Table(
        [
            Column("arch", 12, left=True),
            Column("L1R%", 8, pooled(".l1d", "miss_rate_repl", 100), ".2f"),
            Column("L1I%", 8, pooled(".l1d", "miss_rate_inval", 100), ".2f"),
            Column("L2R%", 8, pooled(".l2", "miss_rate_repl", 100), ".2f"),
            Column("L2I%", 8, pooled(".l2", "miss_rate_inval", 100), ".2f"),
            Column("L1 refs", 12, pooled(".l1d", "accesses")),
            Column("L2 refs", 12, pooled(".l2", "accesses")),
        ],
        caption=title, rule=True,
    ).format(results)


def format_resource_table(
    results: dict[str, ExperimentResult],
    threshold: float = 0.01,
    title: str = "",
) -> str:
    """Shared-resource utilization per architecture.

    Shows, for every run that recorded one, each resource's busy
    fraction of the run — the "where did the bandwidth go" companion to
    the stall breakdown. Resources below ``threshold`` are elided.
    """
    lines = []
    if title:
        lines.append(title)
    for arch, result in results.items():
        report = result.extras.get("resources", {})
        busy = {
            name: value for name, value in sorted(report.items())
            if value >= threshold
        }
        if not busy:
            lines.append(f"{arch:<12} (all resources < {threshold:.0%} busy)")
            continue
        rendered = "  ".join(
            f"{name}={value:.0%}" for name, value in busy.items()
        )
        lines.append(f"{arch:<12} {rendered}")
    return "\n".join(lines)


def format_bar_chart(
    values: dict[str, float],
    title: str = "",
    width: int = 50,
) -> str:
    """A horizontal ASCII bar chart (the paper's figures, in text).

    Bars are scaled so the largest value fills ``width`` characters.
    """
    if not values:
        raise ReproError("nothing to chart")
    peak = max(values.values())
    if peak <= 0:
        raise ReproError("bar chart needs a positive maximum")
    lines = []
    if title:
        lines.append(title)
    label_width = max(len(name) for name in values)
    for name, value in values.items():
        bar = "#" * max(int(round(width * value / peak)), 1)
        lines.append(f"{name:<{label_width}}  {bar} {value:.3f}")
    return "\n".join(lines)


def format_ipc_table(
    results: dict[str, ExperimentResult],
    width: int = 2,
    title: str = "",
) -> str:
    """Figure 11 series: achieved IPC and IPC lost per cause."""
    lines = []
    if title:
        lines.append(title)
    header = (
        f"{'arch':<12}{'IPC':>8}{'icache':>9}{'dcache':>9}{'pipeline':>10}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for arch, result in results.items():
        mxs_list = [m for m in result.stats.mxs if m.cycles]
        if not mxs_list:
            lines.append(f"{arch:<12}{'n/a':>8}")
            continue
        ipc = sum(m.ipc for m in mxs_list) / len(mxs_list)
        losses = {"icache": 0.0, "dcache": 0.0, "pipeline": 0.0}
        for m in mxs_list:
            for key, value in m.ipc_loss(width).items():
                losses[key] += value / len(mxs_list)
        lines.append(
            f"{arch:<12}{ipc:>8.3f}"
            f"{losses['icache']:>9.3f}"
            f"{losses['dcache']:>9.3f}"
            f"{losses['pipeline']:>10.3f}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class Column:
    """One column of a :class:`Table`: its header, field width and
    alignment, and what each row shows in it — ``read(row)`` formatted
    by ``fmt`` and followed by ``suffix``, or the row's label when
    ``read`` is ``None`` (the last part of a tuple label)."""

    header: str
    width: int
    read: Callable[[Mapping], object] | None = None
    fmt: str = ""
    suffix: str = ""
    left: bool = False

    def cell(self, text: str) -> str:
        """``text`` aligned in this column's field."""
        width = self.width
        return f"{text:<{width}}" if self.left else f"{text:>{width}}"

    def show(self, label: Hashable, row: Mapping) -> str:
        """This column's cell of the row ``label`` names."""
        if self.read is not None:
            value = self.read(row)
        else:
            value = label[-1] if isinstance(label, tuple) else label
        return self.cell(format(value, self.fmt) + self.suffix)


@dataclass(frozen=True)
class Table:
    """A header line over one line per row, all cut from the same
    :class:`Column` declarations. ``rows`` names the rows shown, in
    order (default: every row there is); ``rule`` draws a dashed line
    under the header; ``caption`` is a line above it."""

    columns: Sequence[Column]
    rows: Sequence[Hashable] | None = None
    caption: str = ""
    rule: bool = False

    def format(self, results: Mapping[Hashable, Mapping]) -> str:
        """The table over ``results`` (row label -> row)."""
        header = "".join(column.cell(column.header) for column in self.columns)
        lines = [self.caption] if self.caption else []
        lines.append(header)
        if self.rule:
            lines.append("-" * len(header))
        for label in results if self.rows is None else self.rows:
            lines.append("".join(
                column.show(label, results[label]) for column in self.columns
            ))
        return "\n".join(lines)
